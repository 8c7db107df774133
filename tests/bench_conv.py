"""Time conv2d's three kernels and run perfbench on two trees, alternating,
and write a BENCH json.

    python tests/bench_conv.py PARENT CHANGE OUT.json

PARENT and CHANGE are the roots of two checkouts. In each of ROUNDS
rounds every tree runs one process, and the order flips from round to
round. A process imports the library and perfbench's set-up from its own
tree. For each perfbench workload it builds the set-up at SEED and runs
`warm_up`, which raises glibc's mmap threshold as a long search does.
Then, for every geometry in `perfbench/worker.conv_configs`, it times
REPS calls each of conv2d forward, the input gradient alone (the weight
frozen) and the weight gradient alone (the input frozen), on a batch of
`batch_size` clips at the workload's clip size, and reports each median
in ms; a gradient's time is that of the conv node's vjp alone. The
rounds' medians are compared geometry by geometry. Then PAIRS
rounds per workload run `perfbench/run.py --seconds 25 --trace 0` in
each tree, at seeds SEED + 1 .. SEED + PAIRS, and every end-to-end metric
is compared. BLAS runs on one thread.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_eval import run_arm, spread

WORKLOADS = ("desk_cnn", "long_seq", "study")
ARMS = ("parent", "change")
KERNELS = ("fwd_ms", "dx_ms", "dw_ms")
ROUNDS = 6
PAIRS = 10
SEED = 41
REPS = 20


def measure() -> dict:
    """One tree's round: runs inside the tree being measured."""
    from worker import WORKLOADS as SPECS, conv_configs, setup, warm_up
    from emodarts import Tensor, conv2d

    rng = np.random.default_rng(SEED)
    out = {}
    for workload in WORKLOADS:
        ctx = setup(SPECS[workload], SEED)
        warm_up(ctx)
        for name, wshape, args in conv_configs(ctx):
            cin = wshape[1] * args.get("groups", 1)
            x = rng.standard_normal((ctx.config.batch_size, cin,
                                     *ctx.spec.dims))
            w = rng.standard_normal(wshape)
            g = rng.standard_normal(conv2d(Tensor(x), Tensor(w), **args).shape)
            dx_node = conv2d(Tensor(x, requires_grad=True), Tensor(w), **args)
            dw_node = conv2d(Tensor(x), Tensor(w, requires_grad=True), **args)
            calls = {"fwd_ms": lambda: conv2d(Tensor(x), Tensor(w), **args),
                     "dx_ms": lambda: dx_node._vjp(g),
                     "dw_ms": lambda: dw_node._vjp(g)}
            row = out[f"{workload}: {name}"] = {}
            for kernel, call in calls.items():
                samples = []
                for _ in range(REPS):
                    t0 = time.perf_counter()
                    call()
                    samples.append((time.perf_counter() - t0) * 1e3)
                row[kernel] = statistics.median(samples)
    return out


def compare(base: list[float], change: list[float], better: str) -> dict:
    """CHANGE against PARENT, round by round."""
    sign = 1 if better == "higher" else -1
    b, c = spread(base), spread(change)
    return {"parent": b, "change": c,
            "ratio_change_over_parent": c["median"] / b["median"],
            "pairs_won_by_change": sum(sign * (y - x) > 0
                                       for x, y in zip(base, change)),
            "median_gap_exceeds_parent_iqr":
                sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]}


def rounds(roots: dict, argv_of, n: int) -> list[dict]:
    """n rounds of {arm: result}, the arm order flipping each round."""
    out = []
    for i in range(n):
        order = ARMS if i % 2 == 0 else ARMS[::-1]
        out.append({arm: run_arm(roots[arm], argv_of(i)) for arm in order})
    return out


def perfbench_pairs(roots: dict, better: dict, seed: int, pairs: int) -> dict:
    """Per workload, `pairs` rounds of `perfbench/run.py --seconds 25
    --trace 0` at seeds seed .. seed + pairs - 1, and every end-to-end
    metric compared."""
    seeds = [seed + i for i in range(pairs)]
    doc = {}
    for workload in WORKLOADS:
        # run.py exits non-zero, which stops this script, unless the run
        # is correct with no failed operation
        runs = rounds(roots, lambda i: [
            "perfbench/run.py", "--workload", workload, "--seed",
            str(seeds[i]), "--seconds", "25", "--trace", "0"], pairs)
        doc[workload] = {"seeds": seeds, **{
            m: compare([r["parent"]["metrics"][m]["value"] for r in runs],
                       [r["change"]["metrics"][m]["value"] for r in runs], b)
            for m, b in better.items()}}
    return doc


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
    script = str(Path(__file__).resolve())
    better = {m["name"]: m["better"] for m in json.loads(
        (change / "BENCHMARK.json").read_text())["end_to_end"]}
    roots = {"parent": parent, "change": change}
    doc = {"machine": perfbench_run.machine(perfbench_run.child_env()),
           "method": __doc__.split("\n\n", 2)[2].strip(),
           "seed": SEED, "rounds": ROUNDS, "reps": REPS, "pairs": PAIRS,
           "conv2d": {}, "perfbench": {}}
    runs = rounds(roots, lambda i: [script, "--measure"], ROUNDS)
    for geometry in runs[0]["parent"]:
        doc["conv2d"][geometry] = {
            kernel: compare([r["parent"][geometry][kernel] for r in runs],
                            [r["change"][geometry][kernel] for r in runs],
                            "lower")
            for kernel in KERNELS}
    doc["perfbench"] = perfbench_pairs(roots, better, SEED + 1, PAIRS)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
