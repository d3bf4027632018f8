"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: its name is
``<layer>.<function>``, where the layer is the ``lowdisc`` module that owns
the function (``harness`` for the benchmark's own glue).  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Spans:
    def __init__(self):
        # one [name, start_ns, end_ns, parent index or None] per span
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span's index."""
        idx = len(self.records)
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter_ns(), None, parent]
        self.records.append(rec)
        self._open.append(idx)
        try:
            yield idx
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed elsewhere, as a child of the open span."""
        parent = self._open[-1] if self._open else None
        self.records.append([name, start_ns, end_ns, parent])

    def seconds(self, idx: int) -> float:
        _, start, end, _ = self.records[idx]
        return (end - start) / 1e9

    def median(self, name: str) -> float:
        """Median duration of the spans with this name."""
        return statistics.median(
            self.seconds(i) for i, r in enumerate(self.records) if r[0] == name)

    def children_seconds(self, idx: int) -> float:
        return sum(self.seconds(i) for i, r in enumerate(self.records) if r[3] == idx)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Total self time per layer: each span's duration minus its children's."""
        child_ns = [0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.records, child_ns):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner) / 1e9
        return dict(sorted(out.items()))

    def to_json(self) -> list[dict]:
        return [{"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                for i, (name, start, end, parent) in enumerate(self.records)]
