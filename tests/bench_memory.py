"""Measure what a search step's graph holds on two trees, run perfbench on
both, alternating, and write a BENCH json.

    python tests/bench_memory.py PARENT CHANGE OUT.json

PARENT and CHANGE are the roots of two checkouts. Each tree first runs
one process that imports the library and perfbench's set-up from its own
tree. For each perfbench workload it builds the set-up at SEED and runs
`warm_up`. Then it runs the two search steps on one batch of
`batch_size` training clips, the weight step (coefficients frozen) and
the coefficient step (weights frozen), as `search` runs them, and one
training step of the workload's derived model on the same clips. With
tracemalloc on, it records the bytes still allocated when the forward
pass ends, which is what the graph holds until backward, and the peak
over forward and backward. It also records a sha256 of each step's
gradients and saves them, and next to the digests goes the largest
difference between the trees' gradients of a step over its largest
parent gradient. It also records the graph of an eval-mode forward pass
of the derived model, with a graph, over EVAL_CLIPS test clips, as
perfbench's check phase builds one. Then each tree runs a paper-scale
probe once per batch size in PAPER_BATCHES, each in a new process capped
at PAPER_LIMIT_GB of address space: a supernet at `SearchConfig()`
defaults on PAPER_HW random clips runs one weight step timed (forward and
backward seconds), then reads the process's max RSS, then runs a second
weight step under tracemalloc for the end-of-forward graph. Then PAIRS
rounds per workload run `perfbench/run.py --seconds 25 --trace 0` in each
tree, at seeds SEED + 1 .. SEED + PAIRS, the order flipping from round to
round, and every end-to-end metric is compared. BLAS runs on one thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from bench_conv import ARMS, WORKLOADS, perfbench_pairs
from bench_eval import run_arm

PAIRS = 10
SEED = 60
MB = 1e6
EVAL_CLIPS = 64
PAPER_HW = (128, 128)
PAPER_BATCHES = (1, 2)
PAPER_LIMIT_GB = 5


def step_memory(model, xb, yb, learned, frozen, grads: dict,
                key: str) -> dict:
    """One training step of `model` that learns `learned` with `frozen`
    held fixed; the gradients go into `grads` under key."""
    from emodarts import Tensor, cross_entropy
    from emodarts.search import _frozen

    with _frozen(frozen):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy(model.forward_logits(Tensor(xb[:, None])), yb)
            held = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    digest = hashlib.sha256()
    for i, p in enumerate(learned):
        digest.update(np.ascontiguousarray(p.grad).tobytes())
        grads[f"{key}/{i}"] = p.grad
        p.grad = None
    return {"forward_mb": held / MB, "peak_mb": peak / MB,
            "grad_sha256": digest.hexdigest()}


def eval_graph(model, x) -> dict:
    """The graph an eval-mode forward pass with one builds over x."""
    from emodarts import Tensor

    model.set_training(False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits = model.forward_logits(Tensor(x[:, None]))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        model.set_training(True)
    assert logits.requires_grad
    return {"forward_mb": held / MB}


def measure(grads_path: str) -> dict:
    """One tree's graph sizes: runs inside the tree being measured."""
    from worker import WORKLOADS as SPECS, setup, warm_up
    from emodarts import instantiate

    out, grads = {}, {}
    for workload in WORKLOADS:
        ctx = setup(SPECS[workload], SEED)
        warm_up(ctx)
        net = ctx.net
        xb, yb = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])
        derived = instantiate(ctx.genome, ctx.config, SEED, ctx.spec.dims)
        weights, alphas = net.params(), net.arch_params()
        steps = {"weight_step": (net, weights, alphas),
                 "coefficient_step": (net, alphas, weights),
                 "derived_step": (derived, derived.params(), [])}
        out[workload] = {
            name: step_memory(model, xb, yb, learned, frozen, grads,
                              f"{workload}/{name}")
            for name, (model, learned, frozen) in steps.items()}
        x_test = ctx.dataset.split(ctx.fold.test_idx[:EVAL_CLIPS])[0]
        out[workload]["derived_eval_graph"] = eval_graph(derived, x_test)
    np.savez(grads_path, **grads)
    return out


def paper_scale(batch: int) -> dict:
    """One weight step of a supernet at `SearchConfig()` defaults: runs
    inside the tree being measured, in a process of its own."""
    from emodarts import SearchConfig, Tensor, build_supernet, cross_entropy
    from emodarts.search import _frozen

    limit = PAPER_LIMIT_GB << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    config = SearchConfig(seed=SEED)
    rng = np.random.default_rng(SEED)
    net = build_supernet(config, rng, input_hw=PAPER_HW)
    x = Tensor(rng.standard_normal((batch, 1, *PAPER_HW)))
    y = rng.integers(0, config.classes, batch)

    def step(traced: bool) -> tuple:
        with _frozen(net.arch_params()):
            if traced:
                tracemalloc.start()
            t0 = time.perf_counter()
            loss = cross_entropy(net.forward_logits(x), y)
            t1 = time.perf_counter()
            held = tracemalloc.get_traced_memory()[0] if traced else 0
            loss.backward()
            t2 = time.perf_counter()
            if traced:
                tracemalloc.stop()
        for p in net.params():
            p.grad = None
        return t1 - t0, t2 - t1, held

    forward_s, backward_s, _ = step(False)
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    graph = step(True)[2]
    return {"batch": batch, "forward_s": forward_s, "backward_s": backward_s,
            "max_rss_mb": max_rss * 1024 / MB, "graph_mb": graph / MB}


def grad_gaps(parent: Path, change: Path) -> dict:
    """Per workload and step, the largest |change − parent| gradient entry
    over the largest |parent| one."""
    with np.load(parent) as a, np.load(change) as b:
        gaps: dict = {}
        for key in a.files:
            workload, step, _ = key.split("/")
            top = gaps.setdefault(workload, {}).setdefault(step, [0.0, 0.0])
            top[0] = max(top[0], float(np.abs(b[key] - a[key]).max()))
            top[1] = max(top[1], float(np.abs(a[key]).max()))
    return {w: {s: gap / scale for s, (gap, scale) in steps.items()}
            for w, steps in gaps.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(argv[1])))
        return 0
    if argv[:1] == ["--paper-scale"]:
        print(json.dumps(paper_scale(int(argv[1]))))
        return 0
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change, out = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(change / "perfbench"))
    import run as perfbench_run
    script = str(Path(__file__).resolve())
    better = {m["name"]: m["better"] for m in json.loads(
        (change / "BENCHMARK.json").read_text())["end_to_end"]}
    roots = {"parent": parent, "change": change}
    with tempfile.TemporaryDirectory() as tmp:
        saved = {arm: Path(tmp) / f"{arm}.npz" for arm in ARMS}
        graph = {arm: run_arm(roots[arm], [script, "--measure",
                                           str(saved[arm])])
                 for arm in ARMS}
        gaps = grad_gaps(saved["parent"], saved["change"])
    paper = {arm: [run_arm(roots[arm], [script, "--paper-scale", str(b)])
                   for b in PAPER_BATCHES] for arm in ARMS}
    doc = {"machine": perfbench_run.machine(perfbench_run.child_env()),
           "method": __doc__.split("\n\n", 2)[2].strip(),
           "seed": SEED, "pairs": PAIRS,
           "graph": {w: {**{arm: graph[arm][w] for arm in ARMS},
                         "grad_max_rel_diff": gaps[w]}
                     for w in WORKLOADS},
           "paper_scale": paper,
           "perfbench": perfbench_pairs(roots, better, SEED + 1, PAIRS)}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
