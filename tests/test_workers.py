"""``workers.run_workers`` on its own: which worker computes which piece,
the threads it starts and joins, the caller's state its workers run under
and the errors it passes on; and the layout rules that the package deals
pieces to threads in that one place and keeps no state in module globals."""
import ast
import threading
from pathlib import Path

import numpy as np
import pytest

from sirmetric import autodiff as ad
from sirmetric.workers import run_workers

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sirmetric"


def _record(pieces, workers, hold_first=False):
    """Run ``pieces`` pieces on ``workers`` workers; returns {worker: the
    pieces it computed, in order} and {worker: its thread}.  With
    ``hold_first``, piece 0 waits until every other piece has started."""
    computed, threads, seen = {}, {}, []
    others_started = threading.Event()

    def task(worker, piece):
        threads.setdefault(worker, threading.current_thread())
        assert threads[worker] is threading.current_thread()
        computed.setdefault(worker, []).append(piece)
        seen.append(piece)
        if hold_first and piece == 0:
            assert others_started.wait(timeout=10)
        elif set(range(1, pieces)) <= set(seen):
            others_started.set()

    run_workers(task, pieces, workers)
    return computed, threads


@pytest.mark.parametrize("pieces,workers", [(13, 4), (7, 2), (5, 1), (2, 8)])
def test_every_piece_runs_once_and_worker_k_starts_at_piece_k_then_rises(force_cpus,
                                                                        pieces, workers):
    started = force_cpus(1)
    before = threading.active_count()
    computed, threads = _record(pieces, workers)
    assert threading.active_count() == before
    assert sorted(sum(computed.values(), [])) == list(range(pieces))
    assert len(started) == min(pieces, workers) - 1 and not any(t.is_alive() for t in started)
    assert threads[0] is threading.main_thread()
    assert set(threads.values()) == {threading.main_thread(), *started}
    for worker, own in computed.items():
        assert own[0] == worker and own == sorted(own)


def test_a_held_worker_holds_no_piece_but_its_own(force_cpus):
    """Worker 0 holds piece 0 until every other piece has started: the three
    other workers take all of pieces 1..9, and worker 0 then finds none left
    (dealing pieces k, k + workers, ... would give it pieces 4 and 8)."""
    started = force_cpus(1)
    computed, _ = _record(10, 4, hold_first=True)
    assert computed[0] == [0]
    assert sorted(sum(computed.values(), [])) == list(range(10))
    assert len(started) == 3 and not any(thread.is_alive() for thread in started)


def test_no_pieces_start_no_task_and_no_thread(force_cpus):
    started = force_cpus(1)
    calls = []
    run_workers(lambda worker, piece: calls.append(piece), 0, 4)
    assert calls == [] and started == []


def test_an_error_on_a_worker_reaches_the_caller_with_no_thread_left(force_cpus):
    started = force_cpus(1)
    computed = []

    def task(worker, piece):
        if worker == 1:
            raise KeyError("worker 1")
        computed.append(piece)

    before = threading.active_count()
    with pytest.raises(KeyError, match="worker 1"):
        run_workers(task, 6, 2)
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()
    assert 1 not in computed


def test_every_worker_runs_under_the_callers_errstate():
    seen = {}

    def task(worker, piece):
        seen[piece] = np.geterr()["divide"]

    with np.errstate(divide="ignore"):
        run_workers(task, 4, 4)
    assert seen == {piece: "ignore" for piece in range(4)}


def test_every_worker_runs_under_the_callers_grad_mode():
    seen = {}

    def task(worker, piece):
        seen[piece] = ad.Tensor(np.ones(2), requires_grad=True).mean().requires_grad

    with ad.no_grad():
        run_workers(task, 4, 4)
    assert seen == {piece: False for piece in range(4)}
    run_workers(task, 4, 4)
    assert seen == {piece: True for piece in range(4)}


def test_only_the_workers_module_imports_threading():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "threading" for name in names):
                importers.append(path.name)
    assert importers == ["workers.py"]


def test_no_module_has_a_global_statement():
    """Caller state reaches worker threads through the context copy that
    ``run_workers`` makes, never through a rebound module global."""
    rebinders = sorted(path.name for path in PACKAGE.glob("*.py")
                       if any(isinstance(node, ast.Global)
                              for node in ast.walk(ast.parse(path.read_text()))))
    assert rebinders == []
