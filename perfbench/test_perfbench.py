"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sirmetric import evaluate  # noqa: E402
from sirmetric.data import DatasetManifest, generate  # noqa: E402
from sirmetric.networks import NetworkConfig, ReidModel  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, percentile, self_ms_by_name, self_times, summarize  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],      # overlaps a: [1, 5] is covered once
        ["c", 8.0, 12.0, 0, 0],     # clipped to the parent's end
        ["grandchild", 1.5, 2.5, 1, 0],
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_self_ms_by_name_averages_self_time_per_call():
    spans = [
        ["step", 2.0, 2.004, -1, 0],
        ["child", 2.001, 2.003, 0, 0],
        ["step", 3.0, 3.002, -1, 1],
    ]
    stats = self_ms_by_name(spans)
    assert stats["step"][1] == 2
    assert stats["step"][0] == pytest.approx((2.0 + 2.0) / 2)
    assert stats["child"] == (pytest.approx(2.0), 1)


class _Thing:
    def work(self, n):
        return n * 2


def test_tracer_records_nested_spans_counts_and_uninstalls():
    original = _Thing.work
    tracer = Tracer()
    tracer.wrap(_Thing, "work", "thing.work",
                after=lambda t, args, kwargs, result: t.add("thing.out", result))
    tracer.op = 7
    assert _Thing().work(3) == 6
    tracer.recording = False
    _Thing().work(4)
    tracer.uninstall()
    assert _Thing.work is original
    names = [span[0] for span in tracer.spans]
    assert names == ["thing.work", "perfbench.hook"]
    assert tracer.spans[0][4] == 7 and tracer.spans[1][3] == -1
    assert tracer.counts == {"thing.out": 6}


def test_percentiles_report_sample_counts():
    values = [float(v) for v in range(1, 101)]
    summary = summarize(values)
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p99"] == pytest.approx(99.01)
    assert summary["n"] == 100
    assert summary["beyond"] == 1
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_error_rate_counts_stubbed_failures_without_stopping():
    ops = workloads.Ops()

    def boom():
        raise RuntimeError("stubbed failure")

    ops.run("ok", lambda: [])
    ops.run("raises", boom)
    ops.run("bad output", lambda: ["wrong"])
    ops.record("step", workloads.step_problems((3, 1.0, math.nan, 0.5, 1.0, 1.0, 1.0, math.inf)))
    assert (ops.attempted, ops.failed) == (4, 3)
    assert ops.error_rate == pytest.approx(0.75)
    assert workloads.Ops().error_rate == 0.0


def _small_eval():
    manifest = DatasetManifest(num_identities=4, samples_per_identity=8, train_per_identity=2,
                               query_per_identity=3, gallery_per_identity=3, seed=5)
    dataset = generate(manifest)
    model = ReidModel(NetworkConfig(num_identities=4), seed=2)
    result, order, _ = evaluate.evaluate_retrieval(dataset, model)
    return model, dataset, order, evaluate.metrics_json(result, 0.55)


def test_retrieval_check_accepts_the_program_output_and_flags_defects():
    model, dataset, order, text = _small_eval()
    assert workloads.retrieval_problems(model, dataset, 0.55, True, order, text) == []

    swapped = order.copy()
    swapped[0, [0, -1]] = swapped[0, [-1, 0]]
    assert workloads.retrieval_problems(model, dataset, 0.55, True, swapped, text)

    bad = text.replace('"num_gallery": 12', '"num_gallery": 11')
    assert bad != text
    assert workloads.retrieval_problems(model, dataset, 0.55, True, order, bad)


def test_layer_metrics_cover_every_named_layer():
    tracer = Tracer()
    tracer.spans = [["training.train_step", 0.0, 0.01, -1, 0],
                    ["data.to_grayscale", 0.001, 0.002, 0, 0],
                    ["data.to_grayscale", 0.003, 0.004, 0, 0],
                    ["autodiff.backward", 0.005, 0.008, 0, 0],
                    ["data.generate", 0.0, 0.5, -1, 1]]
    tracer.counts = {"autodiff.graph_nodes": 175}
    metrics = workloads.layer_metrics(tracer, traced_rounds=1, overhead_pct=1.5)
    assert metrics["training.train_step.self_ms"][0] == pytest.approx(5.0)
    assert metrics["data.generate.ms"][0] == pytest.approx(500.0)
    assert metrics["data.to_grayscale.calls"] == (2.0, "count")
    assert metrics["autodiff.graph_nodes"] == (175.0, "count")
    assert metrics["trace.overhead_pct"] == (1.5, "%")
    assert all(np.isfinite(value) for value, _ in metrics.values())


def _declared(kind):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def test_a_failing_eval_is_counted_and_the_run_reports_every_metric(tmp_path, monkeypatch):
    def out_of_range(result, alpha):
        return json.dumps({"rank1": 1.5, "rank5": 1.0, "rank10": 1.0, "map": 0.5,
                           "num_queries": 40, "num_gallery": 40, "alpha": alpha})

    monkeypatch.setattr(workloads.evaluate, "metrics_json", out_of_range)
    report = workloads.Bench("train-default", 0, 0.001, False, str(tmp_path)).run()
    ops = report["ops"]
    assert (ops.attempted, ops.failed) == (300 + 1, 1)
    assert [(name, unit) for name, (_, unit, _) in report["rows"].items()] == _declared("end_to_end")


def test_traced_run_reports_every_layer_and_keeps_the_loss_log_bits(tmp_path):
    bench = workloads.Bench("train-default", 0, 0.001, True, str(tmp_path))
    report = bench.run()
    assert report["ops"].failed == 0
    assert report["rounds"] == 2 and bench.traced_rounds == 1
    assert report["digests"][False] == report["digests"][True]
    assert [(name, unit) for name, (_, unit, _) in report["rows"].items()] == _declared("per_layer")
    assert report["rows"]["autodiff.graph_nodes"][0] == 175
    assert report["rows"]["networks.cam_logits.calls"][0] == 300
