"""Outside-in tracing: wrap a layer's public functions where their callers
look them up, record one span per call, and reduce spans to per-layer
self times and counts.

A span is ``[name, start, end, parent index, op id]`` with times from
``time.perf_counter``.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import math
import statistics
import time

HOOK_SPAN = "perfbench.hook"


class Tracer:
    """Installs span-recording wrappers and holds the spans and counters.

    ``recording`` can be switched off to run traced code without adding
    spans (the benchmark's own output checks call into the program too).
    Counter hooks run inside a ``perfbench.hook`` span, so the time they
    take is subtracted from the caller's self time like any child's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _hook(self, hook, *args) -> None:
        record = self._open(HOOK_SPAN)
        try:
            hook(self, *args)
        finally:
            self._close(record)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until uninstall.

        ``before(tracer, args, kwargs)`` runs ahead of the call and
        ``after(tracer, args, kwargs, result)`` after it, both outside the
        wrapped call's own span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            if before is not None:
                tracer._hook(before, args, kwargs)
            record = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index,name,start,end,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent},{op}\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged first)."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def self_ms_by_name(spans) -> dict:
    """name -> (mean self time per call in ms, number of calls)."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {name: (1000.0 * total / calls, calls)
            for name, (total, calls) in totals.items()}


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0-100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median and 99th percentile of a sample with its size and the number
    of samples strictly above the 99th percentile."""
    high = percentile(values, 99)
    return {"p50": statistics.median(values), "p99": high,
            "n": len(values), "beyond": sum(1 for v in values if v > high)}
