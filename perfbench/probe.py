"""Machine-speed probe: a fixed numpy kernel that never calls emodarts.

The benchmark runs on a few cores of a shared host, and the host's speed
drifts by a fifth or more over tens of seconds, so whole runs come out
faster or slower together. A run ticks the probe between library calls,
and inside `search` between its sub-steps (the time of those ticks is
taken out of the call's time), and scales its times by
REFERENCE_S / (median tick). Two runs of the same code at different
machine speeds then report about the same figures, while a change to the
library moves them as before, because the probe does not depend on the
library.

The kernel mixes a memory stream, a strided einsum convolution and a
plain interpreter loop, the three kinds of work the library's steps are
made of; a matmul alone does not track the library's speed on every
workload. It allocates no arrays after construction, so the state the
library leaves the heap in does not change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median tick within a run on the reference VM of perfbench/README.md
REFERENCE_S = 0.035
INTERVAL_S = 0.5         # at most one tick per this many seconds
STREAM = 2_000_000       # doubles: 16 MB, past the core's own caches
STREAM_REPS = 3
CONV = (16, 8, 32, 32)   # B, C, H, W, the desk shape
CONV_REPS = 2
LOOP = 100_000           # interpreter iterations


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.src = rng.standard_normal(STREAM)
        self.dst = np.empty_like(self.src)
        b, c, h, w = CONV
        self.x = rng.standard_normal((b, c, h + 2, w + 2))
        self.k = rng.standard_normal((c, c, 3, 3))
        self.acc = np.empty(CONV)
        self.tap = np.empty(CONV)
        self.ticks: list[float] = []
        self.last = 0.0
        self.spent = 0.0         # seconds of all ticks so far

    def kernel(self) -> None:
        for _ in range(STREAM_REPS):
            np.copyto(self.dst, self.src)
            self.dst.sum()
        h, w = CONV[2:]
        for _ in range(CONV_REPS):
            self.acc.fill(0.0)
            for i in range(3):
                for j in range(3):
                    np.einsum("bchw,oc->bohw", self.x[:, :, i:i + h, j:j + w],
                              self.k[:, :, i, j], out=self.tap)
                    self.acc += self.tap
        total = 0
        for i in range(LOOP):
            total += i * i % 7

    def tick(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.ticks.append(self.last - t0)
        self.spent += self.last - t0

    def tick_if_due(self, event=None) -> None:
        """Tick if INTERVAL_S has passed; also an `on_step` hook."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.tick()

    def factor(self) -> float:
        """Reference speed over this run's speed: below 1 on a slow run."""
        return REFERENCE_S / statistics.median(self.ticks)
