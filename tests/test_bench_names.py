"""The benchmark in perfbench/ traces the program by wrapping its public
functions by name; deleting or renaming one of them breaks the benchmark.
Installing and removing its tracer here catches that in the test suite."""
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_tracer_finds_every_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    workloads.install_tracer(tracer)
    patches = list(tracer._patches)
    tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
