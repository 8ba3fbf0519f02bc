"""Fixtures shared by the test modules."""
import threading

import pytest

from sirmetric import workers


@pytest.fixture
def force_cpus(monkeypatch):
    """``force_cpus(n)`` makes the worker split see n CPUs on any host and
    returns the list of the threads it starts from then on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(workers.threading, "Thread", Recorded)

    def force(count):
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        return started

    return force
