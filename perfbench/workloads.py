"""The benchmark's workloads, their output checks, and the metrics they
report.  See README.md beside this file for why each workload exists.

Every workload is a closed loop with one caller: the next operation
starts when the previous one ends.  Inputs derive from the seed only.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from sirmetric import autodiff, checkpoint, clusters, data, evaluate, networks, training
from sirmetric.config import RunConfig
from sirmetric.data import DatasetManifest
from sirmetric.networks import NetworkConfig

from spans import Tracer, percentile, self_ms_by_name, summarize

# Frozen seeds of the reference training and of the benchmark it is scored
# on; the eval-gallery workload's own benchmark uses seeds above these.
REFERENCE_TRAIN_SEED = 1
REFERENCE_BENCH_SEED = 1000
REFERENCE_EPOCHS = 5
GALLERY_IDS = 200
CHECKED_QUERIES = 8

LOSSES = ("triplet_loss", "center_discrepancy_loss", "classification_loss",
          "cam_classification_loss", "positive_recon_loss", "negative_recon_loss",
          "total_loss")
CAM = ("build_pseudo_gt_batch", "augment_positive", "augment_negative")
NETWORKS = ("backbone_forward", "separator_forward", "generator_forward",
            "cam_logits", "cam_maps", "classifier_forward")
TIMED_LAYERS = (
    ("autodiff.backward", "autodiff.backward.ms"),
    ("autodiff.adam_step", "autodiff.adam_step.ms"),
    *((f"losses.{fn}", f"losses.{fn}.ms") for fn in LOSSES),
    *((f"cam.{fn}", f"cam.{fn}.ms") for fn in CAM),
    ("training.train_step", "training.train_step.self_ms"),
    *((f"networks.{fn}", f"networks.{fn}.ms") for fn in NETWORKS),
    ("data.sample_triplet", "data.sample_triplet.ms"),
    ("data.randomly_grayscale", "data.randomly_grayscale.ms"),
    ("clusters.refresh", "clusters.refresh.ms"),
    ("clusters.centers_matrix", "clusters.centers_matrix.ms"),
    ("evaluate.fuse_embeddings", "evaluate.fuse_embeddings.ms"),
    ("evaluate.rank_all", "evaluate.rank_all.ms"),
    ("evaluate.cmc_and_map", "evaluate.cmc_and_map.ms"),
    ("checkpoint.save_checkpoint", "checkpoint.save_checkpoint.ms"),
    ("checkpoint.load_checkpoint", "checkpoint.load_checkpoint.ms"),
    ("data.load_dataset", "data.load_dataset.ms"),
    ("data.generate", "data.generate.ms"),
)


# ---- configurations ------------------------------------------------------


def default_config(seed: int, out_dir: str) -> RunConfig:
    """RunConfig() defaults, three epochs of 100 steps."""
    base = RunConfig()
    return dataclasses.replace(base, seed=seed, data=dataclasses.replace(base.data, seed=seed),
                               epochs=3, out_dir=out_dir)


def wide_config(seed: int, out_dir: str) -> RunConfig:
    """Three-channel images, hidden widths 256, 100 identities, batch 64."""
    shape = (3, 16, 8)
    network = NetworkConfig(image_shape=shape, num_identities=100, backbone_hidden=256,
                            separator_hidden=256, generator_hidden=256)
    manifest = DatasetManifest(num_identities=100, image_shape=shape, seed=seed)
    return RunConfig(network=network, data=manifest, batch_size=64, epochs=2,
                     steps_per_epoch=25, seed=seed, out_dir=out_dir)


def reference_config(out_dir: str) -> RunConfig:
    """The frozen-seed default training scored by eval_rank1 and eval_map."""
    return dataclasses.replace(RunConfig(), seed=REFERENCE_TRAIN_SEED,
                               epochs=REFERENCE_EPOCHS, out_dir=out_dir)


def gallery_manifest(seed: int) -> DatasetManifest:
    """200 identities x 20 samples: 800 queries against 800 gallery images."""
    return DatasetManifest(num_identities=GALLERY_IDS, samples_per_identity=20,
                           train_per_identity=12, query_per_identity=4,
                           gallery_per_identity=4, seed=seed)


def workload_inputs(workload: str, seed: int, out_dir: str):
    """(training config, eval manifest or None for the training data's own
    query/gallery split) of a workload."""
    if workload == "train-default":
        return default_config(seed, out_dir), None
    if workload == "train-wide":
        return wide_config(seed, out_dir), None
    if workload == "eval-gallery":
        # data seed disjoint from the training data's (0) and the reference benchmark's
        return (dataclasses.replace(reference_config(out_dir), epochs=1, steps_per_epoch=50),
                gallery_manifest(REFERENCE_BENCH_SEED + 1 + seed))
    raise ValueError(f"unknown workload {workload!r}")


# ---- output checks -------------------------------------------------------


def step_problems(row) -> list:
    """A logged loss row with any non-finite component is a failed step."""
    return [f"step {row[0]}: non-finite {name}"
            for name, value in zip(training.LOG_HEADER.split(",")[1:], row[1:])
            if not math.isfinite(value)]


def retrieval_problems(model, dataset, alpha, use_flip, order, text) -> list:
    """Check an eval operation's metrics document and, for a fixed sample of
    queries, that the returned gallery order never decreases in a
    per-query brute-force distance (relative slack 1e-9)."""
    problems = []
    doc = json.loads(text)
    for key in ("rank1", "rank5", "rank10", "map"):
        if not 0.0 <= doc[key] <= 1.0:
            problems.append(f"{key}={doc[key]} outside [0, 1]")
    manifest = dataset.manifest
    expected = (manifest.num_identities * manifest.query_per_identity,
                manifest.num_identities * manifest.gallery_per_identity)
    if (doc["num_queries"], doc["num_gallery"]) != expected:
        problems.append(f"Q, G = {doc['num_queries']}, {doc['num_gallery']}; "
                        f"manifest says {expected}")
    num_queries, num_gallery = order.shape
    rows = np.unique(np.linspace(0, num_queries - 1, CHECKED_QUERIES).astype(int))
    gallery = evaluate.fuse_embeddings(dataset.images[dataset.gallery_idx], model,
                                       alpha, use_flip)
    queries = evaluate.fuse_embeddings(dataset.images[dataset.query_idx[rows]], model,
                                       alpha, use_flip)
    for row, vector in zip(rows, queries):
        ranked = order[row]
        if not np.array_equal(np.sort(ranked), np.arange(num_gallery)):
            problems.append(f"query {row}: order is not a permutation of the gallery")
            continue
        reference = np.sqrt(((gallery - vector) ** 2).sum(axis=1))[ranked]
        if np.any(reference[1:] < reference[:-1] * (1.0 - 1e-9)):
            problems.append(f"query {row}: order decreases in the reference distance")
    return problems


class Ops:
    """Operations attempted and failed.  A failure is recorded and the run
    goes on, so failures show in the error rate instead of ending it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def run(self, what: str, operation) -> None:
        """Run ``operation()``, which returns a list of problems."""
        try:
            problems = operation()
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            problems = ["raised"]
        self.record(what, problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---- tracing -------------------------------------------------------------


def _count_graph_nodes(tracer, args, kwargs):
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    tracer.add("autodiff.graph_nodes", len(seen))


def _count_rank_bytes(tracer, args, kwargs):
    queries, gallery = args[0], args[1]
    tracer.add("evaluate.rank_all.bytes", queries.shape[0] * gallery.shape[0] * queries.shape[1] * 8)


def _count_refresh_images(tracer, args, kwargs):
    tracer.add("clusters.refresh.images", len(args[1]))


def _count_checkpoint_bytes(tracer, args, kwargs, result):
    directory = args[0]
    tracer.add("checkpoint.save_checkpoint.bytes",
               sum(os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)))


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions in the namespace its callers use."""
    for fn in LOSSES:
        tracer.wrap(training, fn, f"losses.{fn}")
    for fn in CAM:
        tracer.wrap(training, fn, f"cam.{fn}")
    for fn in NETWORKS:
        tracer.wrap(networks.ReidModel, fn, f"networks.{fn}")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.backward", before=_count_graph_nodes)
    tracer.wrap(autodiff.Adam, "step", "autodiff.adam_step")
    tracer.wrap(training.Trainer, "train_step", "training.train_step")
    tracer.wrap(training, "sample_triplet", "data.sample_triplet")
    tracer.wrap(training, "randomly_grayscale", "data.randomly_grayscale")
    tracer.wrap(training, "to_grayscale", "data.to_grayscale")
    tracer.wrap(data, "to_grayscale", "data.to_grayscale")  # randomly_grayscale's own calls
    tracer.wrap(clusters.ClusterRegistry, "refresh", "clusters.refresh",
                before=_count_refresh_images)
    tracer.wrap(clusters.ClusterRegistry, "centers_matrix", "clusters.centers_matrix")
    tracer.wrap(evaluate, "fuse_embeddings", "evaluate.fuse_embeddings")
    tracer.wrap(evaluate, "rank_all", "evaluate.rank_all", before=_count_rank_bytes)
    tracer.wrap(evaluate, "cmc_and_map", "evaluate.cmc_and_map")
    tracer.wrap(training, "save_checkpoint", "checkpoint.save_checkpoint",
                after=_count_checkpoint_bytes)
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
    tracer.wrap(data, "load_dataset", "data.load_dataset")
    tracer.wrap(data, "generate", "data.generate")


def layer_metrics(tracer: Tracer, traced_rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    A ``.ms`` value is the mean self time per call.  Counts are exact for a
    given commit and seed: per call of their own span, per train step
    (to_grayscale) or per round (network calls).
    """
    stats = self_ms_by_name(tracer.spans)

    def calls(name):
        return stats.get(name, (0.0, 0))[1]

    def per_call(counter, span):
        return tracer.counts.get(counter, 0) / max(calls(span), 1)

    metrics = {metric: (stats.get(span, (0.0, 0))[0], "ms") for span, metric in TIMED_LAYERS}
    for fn in NETWORKS:
        metrics[f"networks.{fn}.calls"] = (calls(f"networks.{fn}") / max(traced_rounds, 1), "count")
    metrics["autodiff.graph_nodes"] = (per_call("autodiff.graph_nodes", "autodiff.backward"), "count")
    metrics["data.to_grayscale.calls"] = (
        calls("data.to_grayscale") / max(calls("training.train_step"), 1), "count")
    metrics["clusters.refresh.images"] = (per_call("clusters.refresh.images", "clusters.refresh"), "count")
    metrics["evaluate.rank_all.bytes"] = (per_call("evaluate.rank_all.bytes", "evaluate.rank_all"), "B")
    metrics["checkpoint.save_checkpoint.bytes"] = (
        per_call("checkpoint.save_checkpoint.bytes", "checkpoint.save_checkpoint"), "B")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


# ---- the run -------------------------------------------------------------


def file_sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Bench:
    """One workload in one process: rounds of set-up, training and eval for
    the given number of seconds, with output checks on every operation.

    With ``trace`` on, every other round runs traced; the rounds in between
    give the untraced side of the overhead figure.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: str):
        self.config, self.eval_manifest = workload_inputs(workload, int(seed),
                                                          os.path.join(workdir, "run"))
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.workdir = workdir
        self.data_dir = os.path.join(workdir, "eval_data")
        self.ops = Ops()
        self.tracer = Tracer() if trace else None
        self.samples = {"setup_s": [], "train_steps_per_s": [], "train_step_ms": [],
                        "center_refresh_ms": [], "eval_ms": []}
        self.round_walls = {False: [], True: []}   # Trainer.run wall, by traced
        self.digests = {False: set(), True: set()}
        self.traced_rounds = 0
        self._traced = False
        self.peak_rss_mb = 0.0

    # -- timing hooks that stay on in every mode --

    def _install_timers(self):
        bench = self
        train_step = training.Trainer.train_step
        refresh = clusters.ClusterRegistry.refresh

        def timed_train_step(trainer):
            start = time.perf_counter()
            row = train_step(trainer)
            bench.samples["train_step_ms"].append(1000.0 * (time.perf_counter() - start))
            bench.ops.record(f"train step {row[0]}", step_problems(row))
            return row

        def timed_refresh(registry, *args, **kwargs):
            start = time.perf_counter()
            refresh(registry, *args, **kwargs)
            bench.samples["center_refresh_ms"].append(1000.0 * (time.perf_counter() - start))

        training.Trainer.train_step = timed_train_step
        clusters.ClusterRegistry.refresh = timed_refresh
        return lambda: (setattr(training.Trainer, "train_step", train_step),
                        setattr(clusters.ClusterRegistry, "refresh", refresh))

    def _set_traced(self, traced: bool) -> None:
        if traced and not self._traced:
            install_tracer(self.tracer)
        elif self._traced and not traced:
            self.tracer.uninstall()
        self._traced = traced

    # -- operations --

    def _train(self) -> None:
        """Trainer.run with checkpoints on, timed; keeps the loss log's sha256."""
        trainer = training.Trainer(self.config, dataset=self.dataset)
        start = time.perf_counter()
        trainer.run(save_checkpoints=True)
        wall = time.perf_counter() - start
        self.samples["train_steps_per_s"].append(trainer.step / wall)
        self.round_walls[self._traced].append(wall)
        self.digests[self._traced].add(
            file_sha256(os.path.join(self.config.out_dir, "loss_log.csv")))

    def _eval(self, ckpt_dir: str, data_dir: str) -> None:
        """The calls `sirmetric eval` makes, timed, then checked."""

        def operation():
            start = time.perf_counter()
            model, _, _, meta = checkpoint.load_checkpoint(ckpt_dir)
            dataset = data.load_dataset(data_dir)
            alpha = float(meta["eval.alpha"])
            use_flip = meta["eval.flip"] == "true"
            result, order, _ = evaluate.evaluate_retrieval(dataset, model, alpha=alpha,
                                                           use_flip=use_flip)
            text = evaluate.metrics_json(result, alpha)
            self.samples["eval_ms"].append(1000.0 * (time.perf_counter() - start))
            if self.tracer is not None:
                self.tracer.recording = False
            try:
                return retrieval_problems(model, dataset, alpha, use_flip, order, text)
            finally:
                if self.tracer is not None:
                    self.tracer.recording = True

        self.ops.run(f"eval {ckpt_dir}", operation)

    # -- phases --

    def _setup(self) -> None:
        """Generate the training data and save the eval data."""
        self.dataset = data.generate(self.config.data)
        # fill the triplet sampler's lazy per-dataset cache
        training.sample_triplet(self.dataset, np.random.default_rng(0))
        evalset = self.dataset if self.eval_manifest is None else data.generate(self.eval_manifest)
        data.save_dataset(evalset, self.data_dir)

    def _round(self) -> None:
        start = time.perf_counter()
        self._setup()
        self.samples["setup_s"].append(time.perf_counter() - start)
        self._train()
        self._eval(os.path.join(self.config.out_dir, "ckpt_final"), self.data_dir)

    def _reference_quality(self):
        """Rank-1 and mAP of the frozen-seed reference training on the
        frozen 200-identity benchmark."""
        config = reference_config(os.path.join(self.workdir, "reference"))
        ckpt_dir = os.path.join(config.out_dir, "ckpt_final")
        training.Trainer(config, dataset=data.generate(config.data)).run(save_checkpoints=True)
        bench = data.generate(gallery_manifest(REFERENCE_BENCH_SEED))
        model, _, _, meta = checkpoint.load_checkpoint(ckpt_dir)
        result, _, _ = evaluate.evaluate_retrieval(bench, model, alpha=float(meta["eval.alpha"]),
                                                   use_flip=meta["eval.flip"] == "true")
        return result.rank_k(1), result.mean_ap

    def run(self) -> dict:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        restore = self._install_timers()
        try:
            min_rounds = 2 if self.trace else 1
            deadline = time.perf_counter() + self.seconds
            index = 0
            while index < min_rounds or time.perf_counter() < deadline:
                traced = self.trace and index % 2 == 1
                self._set_traced(traced)
                if self.tracer is not None:
                    self.tracer.op = index
                self._round()
                self.traced_rounds += traced
                index += 1
            self._set_traced(False)
            self.rounds = index
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            restore()
        self.quality = None if self.trace else self._reference_quality()
        digests = self.digests[False] | self.digests[True]
        if len(digests) != 1:
            self.ops.record("loss-log digest", [f"rounds disagree: {sorted(digests)}"])
        return self.report()

    # -- reporting --

    def end_to_end(self) -> dict:
        """The gated metrics: name -> (value, unit, sample count)."""
        s = self.samples
        rank1, mean_ap = self.quality
        return {
            "setup_s": (statistics.median(s["setup_s"]), "s", len(s["setup_s"])),
            "train_step_ms_p1": (percentile(s["train_step_ms"], 1), "ms", len(s["train_step_ms"])),
            "center_refresh_ms_min": (min(s["center_refresh_ms"]), "ms", len(s["center_refresh_ms"])),
            "eval_ms_min": (min(s["eval_ms"]), "ms", len(s["eval_ms"])),
            "eval_rank1": (rank1, "ratio", 1),
            "eval_map": (mean_ap, "ratio", 1),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }

    def distributions(self) -> dict:
        """Median and p99 of each timing and the round throughput, printed
        beside the gated metrics: name -> (value, unit, sample count,
        samples above the value)."""
        rates = self.samples["train_steps_per_s"]
        rows = {"train_steps_per_s_p50": (statistics.median(rates), "1/s", len(rates),
                                          len(rates) // 2),
                "train_steps_per_s_max": (max(rates), "1/s", len(rates), 0)}
        for name in ("train_step_ms", "center_refresh_ms", "eval_ms"):
            summary = summarize(self.samples[name])
            rows[f"{name}_p50"] = (summary["p50"], "ms", summary["n"], summary["n"] // 2)
            rows[f"{name}_p99"] = (summary["p99"], "ms", summary["n"], summary["beyond"])
        return rows

    def overhead_pct(self) -> float:
        untraced = statistics.median(self.round_walls[False])
        traced = statistics.median(self.round_walls[True])
        return 100.0 * (traced / untraced - 1.0)

    def report(self) -> dict:
        if self.trace:
            metrics = layer_metrics(self.tracer, self.traced_rounds, self.overhead_pct())
            rows = {name: (value, unit, None) for name, (value, unit) in metrics.items()}
        else:
            rows = self.end_to_end()
        return {"rows": rows, "distributions": self.distributions(), "digests": self.digests,
                "rounds": self.rounds, "ops": self.ops}
