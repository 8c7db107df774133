"""Span recorder for the traced benchmark run.

A span is (layer, name, start, end, parent): the layer is the emodarts
module the benchmark called into, the parent is the index of the span
that was open when this one started. Spans stay in memory and are written
out once, when the run ends. A disabled recorder keeps nothing, so the
untraced run pays one flag test per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([layer, name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.records[idx][3] = time.perf_counter()

    def durations(self, layer: str, name: str) -> list[float]:
        return [r[3] - r[2] for r in self.records
                if r[0] == layer and r[1] == name and r[3] is not None]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span minus the time its children cover."""
        child = [0.0] * len(self.records)
        for layer, name, t0, t1, parent in self.records:
            if parent is not None and t1 is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for k, (layer, name, t0, t1, parent) in enumerate(self.records):
            if t1 is not None:
                out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[k]
        return out

    def write(self, path, extra: dict) -> None:
        t_zero = self.records[0][2] if self.records else 0.0
        doc = dict(extra)
        doc["self_seconds"] = self.self_times()
        doc["spans"] = [
            {"layer": layer, "name": name, "start_s": t0 - t_zero,
             "end_s": (t1 - t_zero) if t1 is not None else None,
             "parent": parent}
            for layer, name, t0, t1, parent in self.records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
