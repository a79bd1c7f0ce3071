"""Spans and counters recorded around the benchmark's own calls into chd.

A disabled recorder calls straight through and keeps nothing, so the
untraced passes pay one attribute test per call.  Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


def layer_name(fn) -> str:
    """``chd.hadamard.verify`` -> ``hadamard.verify``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.label = "setup"  # "setup" or the pass number
        self.job = None
        self.spans: list[dict] = []
        self.totals: dict = defaultdict(float)  # (label, metric) -> value
        self.traced: set = set()  # labels that were traced, even if nothing ran
        self._stack: list[int] = []

    def begin(self, label, enabled: bool) -> None:
        self.label, self.enabled = label, enabled
        if enabled:
            self.traced.add(label)

    def add(self, metric: str, value: float = 1.0) -> None:
        if self.enabled:
            self.totals[(self.label, metric)] += value

    def _open(self) -> float:
        self._stack.append(len(self.spans))
        self.spans.append(None)  # placeholder that keeps this span's id
        return perf_counter()

    def _close(self, name: str, start: float) -> float:
        end = perf_counter()
        sid = self._stack.pop()
        self.spans[sid] = {
            "id": sid, "name": name, "start": start, "end": end,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job, "pass": self.label,
        }
        return end - start

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as a span named after fn's module."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = layer_name(fn)
        start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.totals[(self.label, name + ".ms")] += 1000 * self._close(name, start)
            self.totals[(self.label, name + ".calls")] += 1

    def job_begin(self, name: str) -> None:
        self.job = name
        if self.enabled:
            self._job_start = self._open()

    def job_end(self) -> None:
        if self.enabled:
            self._close("job", self._job_start)
        self.job = None

    def per_layer(self, metric: str) -> float:
        """What one set-up plus one pass spends: the traced set-up's total
        plus the median over traced passes of each pass's total."""
        passes = [label for label in self.traced if label != "setup"]
        value = self.totals.get(("setup", metric), 0.0)
        if passes:
            value += statistics.median(self.totals.get((p, metric), 0.0) for p in passes)
        return value

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
