"""Independent pieces of one array computation dealt to threads, one per
CPU.  numpy releases the GIL in matrix products, in large ufuncs, in sorts
and in ``take``, so the threads run in parallel; each caller decides by its
own rule whether its pieces carry enough work to pay for a thread."""
from __future__ import annotations

import contextvars
import itertools
import os
import threading


def cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_workers(task, pieces: int, workers: int) -> None:
    """``task(worker, piece)`` for every piece in range(``pieces``), dealt to
    min(``workers``, ``pieces``) workers: worker k takes piece k, then the
    lowest-numbered piece no worker has taken, so a worker that is held up
    holds up no piece but its own.  Worker 0 runs in this thread, each other
    one on a thread of its own that runs in a copy of this thread's context,
    since numpy's errstate and autodiff's grad mode are context variables
    that a new thread does not inherit.  Joins every thread that started
    before returning or raising, also when starting one fails, and re-raises
    the first error a worker met."""
    workers = max(1, min(workers, pieces))
    untaken, taking = itertools.count(workers), threading.Lock()
    errors = []

    def run(worker):
        piece = worker
        try:
            while piece < pieces:
                task(worker, piece)
                with taking:   # no piece is taken twice
                    piece = next(untaken)
        except Exception as exc:
            errors.append(exc)

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, worker))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
