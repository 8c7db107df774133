"""Measure what a search step's graph holds on two trees, run perfbench on
both, alternating, and write a BENCH json.

    python tests/bench_memory.py PARENT CHANGE OUT.json

PARENT and CHANGE are the roots of two checkouts. Each tree first runs
one process that imports the library and perfbench's set-up from its own
tree. For each perfbench workload it builds the set-up at SEED and runs
`warm_up`. Then it runs the two search steps on one batch of
`batch_size` training clips, the weight step (coefficients frozen) and
the coefficient step (weights frozen), as `search` runs them. With
tracemalloc on, it records the bytes still allocated when the forward
pass ends, which is what the graph holds until backward, and the peak
over forward and backward. It also records a sha256 of the gradients,
which must match between the trees. Then PAIRS rounds per workload run
`perfbench/run.py --seconds 25 --trace 0` in each tree, at seeds
SEED + 1 .. SEED + PAIRS, the order flipping from round to round, and
every end-to-end metric is compared. BLAS runs on one thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from bench_conv import WORKLOADS, perfbench_pairs, rounds

PAIRS = 10
SEED = 60
MB = 1e6


def step_memory(net, xb, yb, frozen) -> dict:
    from emodarts import Tensor, cross_entropy
    from emodarts.search import _frozen

    learned = [p for p in net.params() + net.arch_params()
               if not any(p is f for f in frozen)]
    with _frozen(frozen):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy(net.forward_logits(Tensor(xb[:, None])), yb)
            held = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    digest = hashlib.sha256()
    for p in learned:
        digest.update(np.ascontiguousarray(p.grad).tobytes())
        p.grad = None
    return {"forward_mb": held / MB, "peak_mb": peak / MB,
            "grad_sha256": digest.hexdigest()}


def measure() -> dict:
    """One tree's graph sizes: runs inside the tree being measured."""
    from worker import WORKLOADS as SPECS, setup, warm_up

    out = {}
    for workload in WORKLOADS:
        ctx = setup(SPECS[workload], SEED)
        warm_up(ctx)
        net = ctx.net
        xb, yb = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])
        out[workload] = {
            "weight_step": step_memory(net, xb, yb, net.arch_params()),
            "coefficient_step": step_memory(net, xb, yb, net.params())}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--measure"]:
        print(json.dumps(measure()))
        return 0
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change, out = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(change / "perfbench"))
    import run as perfbench_run
    better = {m["name"]: m["better"] for m in json.loads(
        (change / "BENCHMARK.json").read_text())["end_to_end"]}
    roots = {"parent": parent, "change": change}
    graph = rounds(roots, lambda i: [str(Path(__file__).resolve()),
                                     "--measure"], 1)[0]
    doc = {"machine": perfbench_run.machine(perfbench_run.child_env()),
           "method": __doc__.split("\n\n", 2)[2].strip(),
           "seed": SEED, "pairs": PAIRS,
           "graph": {w: {arm: graph[arm][w] for arm in roots}
                     for w in WORKLOADS},
           "perfbench": perfbench_pairs(roots, better, SEED + 1, PAIRS)}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
