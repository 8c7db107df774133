"""Run one probe on two trees, then perfbench on both, alternating, and
write a BENCH json.

    python tests/bench_ab.py PROBE PARENT CHANGE OUT.json

PROBE is conv, eval, memory or recurrence; PARENT and CHANGE are the
roots of two checkouts. In each of a probe's `rounds` rounds every tree
runs one process, and the order flips from round to round. A process
imports the library and perfbench's set-up from its own tree. For each
perfbench workload (desk_cnn, long_seq, study) it builds the set-up at
the probe's `seed` and runs `warm_up`, which raises glibc's mmap
threshold as a long search does, and then runs the probe, which returns
fields by entry. A
timed field (see BETTER) is compared round by round; any other field is
reported as each tree's first-round value and whether every run gave the
same. Where a probe sets arrays aside, `max_rel_diff` is, per entry over
all rounds, the largest |change - parent| entry over the largest |parent|
entry. Then `pairs` rounds per workload run `perfbench/run.py --seconds 25
--trace 0` in each tree, at seeds seed + 1 .. seed + pairs, and every
end-to-end metric is compared. BLAS runs on one thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

WORKLOADS = ("desk_cnn", "long_seq", "study")
ARMS = ("parent", "change")
TIMEOUT_S = 600
MB = 1e6
# timed fields, compared round by round, and which way is better
BETTER = {"fwd_ms": "lower", "dx_ms": "lower", "dw_ms": "lower",
          "vjp_ms": "lower", "clips_per_s": "higher"}
PAPER_HW = (128, 128)
PAPER_LIMIT_GB = 5
TOP_SITES = 8            # allocation sites listed per traced forward pass


# ---- probes ----
# A probe runs inside the tree being measured, on one workload's set-up
# `ctx`, and returns {entry: {field: value}}; arrays it puts in `arrays`
# under an entry are compared across trees. Its keyword-only defaults are
# its constants and go into the json: `seed`, `rounds` (in-tree runs per
# tree), `pairs` (perfbench runs per tree and workload) and its own.

def conv2d(ctx, arrays, *, seed=41, rounds=6, reps=20, pairs=10) -> dict:
    """For every geometry in `perfbench/worker.conv_configs`, on a batch of
    `batch_size` clips at the workload's clip size, and every other one
    that one forward pass of the supernet and of the derived model make on
    `batch_size` training clips (found by spying conv2d, and named by its
    input shape and arguments): `reps` calls each of conv2d forward, the
    input gradient alone (the weight frozen) and the weight gradient alone
    (the input frozen), and each median in ms; a gradient's time is that of
    the conv node's vjp alone. Set aside per geometry: the output and both
    gradients."""
    from worker import conv_configs
    from emodarts import Tensor, conv2d as conv

    geometries = {}
    for name, wshape, args in conv_configs(ctx):
        cin = wshape[1] * args.get("groups", 1)
        xshape = (ctx.config.batch_size, cin, *ctx.spec.dims)
        geometries[conv_key(xshape, wshape, args)] = name
    for key in sorted(spied_convs(ctx)):
        (_, cin, h, w), wshape, (stride, padding, dilation, groups) = key
        spd = " ".join(f"{k}{a},{b}" for k, (a, b) in
                       zip("spd", (stride, padding, dilation)))
        geometries.setdefault(key, f"{cin}x{h}x{w} -> {wshape[0]} "
                                   f"{wshape[2]}x{wshape[3]} {spd} g{groups}")
    rng = np.random.default_rng(ctx.seed)
    out = {}
    for (xshape, wshape, conv_args), name in geometries.items():
        args = dict(zip(("stride", "padding", "dilation", "groups"), conv_args))
        x, w = rng.standard_normal(xshape), rng.standard_normal(wshape)
        node = conv(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                    **args)
        g = rng.standard_normal(node.shape)
        arrays[name] = [node.data, *node._vjp(g)]
        dx_node = conv(Tensor(x, requires_grad=True), Tensor(w), **args)
        dw_node = conv(Tensor(x), Tensor(w, requires_grad=True), **args)
        calls = {"fwd_ms": lambda: conv(Tensor(x), Tensor(w), **args),
                 "dx_ms": lambda: dx_node._vjp(g),
                 "dw_ms": lambda: dw_node._vjp(g)}
        out[name] = {kernel: median_ms(call, reps)
                     for kernel, call in calls.items()}
    return out


def conv_key(xshape, wshape, args) -> tuple:
    """A conv call's geometry: (input shape, weight shape, (stride,
    padding, dilation, groups)), each of the first three as a pair."""
    pair = lambda v: tuple(v) if isinstance(v, (tuple, list)) else (v, v)
    return (tuple(xshape), tuple(wshape),
            (pair(args.get("stride", 1)), pair(args.get("padding", 0)),
             pair(args.get("dilation", 1)), args.get("groups", 1)))


def spied_convs(ctx) -> set:
    """The geometry (`conv_key`) of every conv2d call that one forward pass
    of the supernet and one of the workload's derived model make on
    `batch_size` training clips."""
    import emodarts.tensor as tensor
    from emodarts import Tensor, instantiate

    real, found = tensor.conv2d, set()

    def spy(x, w, stride=1, padding=0, dilation=1, groups=1):
        found.add(conv_key(x.shape, w.shape, dict(
            stride=stride, padding=padding, dilation=dilation, groups=groups)))
        return real(x, w, stride, padding, dilation, groups)

    # every module that bound conv2d by name, tensor's own included (its
    # conv2d_norm calls it)
    bound = [m for name, m in sys.modules.items()
             if name.startswith("emodarts") and getattr(m, "conv2d", None) is real]
    xb = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])[0]
    try:
        for m in bound:
            m.conv2d = spy
        for model in (ctx.net, instantiate(ctx.genome, ctx.config, ctx.seed,
                                           ctx.spec.dims)):
            model.forward_logits(Tensor(xb[:, None]))
    finally:
        for m in bound:
            m.conv2d = real
    return found


def median_ms(call, reps: int) -> float:
    """The median time of `reps` calls of call(), in ms."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def evaluate(ctx, arrays, *, seed=11, rounds=10, reps_per_arm=12,
             train_epochs=5, pairs=10) -> dict:
    """Train the derived model of the workload's fixed genome and the
    CNN-LSTM baseline for `train_epochs` epochs each on fold 0's train and
    validation clips, then time `reps_per_arm` `evaluate` calls of each on
    fold 0's test clips: their median clips/s and the (UA, WA) they
    returned. The eval-mode logits of the test clips are set aside.
    `BENCH_eval_graphfree.json` came from `tests/bench_eval.py` at 9cbc02a,
    with a third arm, CHANGE's tree with PARENT's `ops.py`."""
    import emodarts

    ds, cfg, dims = ctx.dataset, ctx.config, ctx.spec.dims
    trainval, test = ds.split(ctx.trainval), ds.split(ctx.fold.test_idx)
    models = {"derived": emodarts.instantiate(ctx.genome, cfg, ctx.seed, dims),
              "baseline": emodarts.Baseline("cnn_lstm", cfg, ctx.seed, dims)}
    out = {}
    for name, model in models.items():
        emodarts.train_derived(model, trainval, cfg, epochs=train_epochs)
        rates, scores = [], set()
        for _ in range(reps_per_arm):
            t0 = time.perf_counter()
            scores.add(emodarts.evaluate(model, test))
            rates.append(len(test[1]) / (time.perf_counter() - t0))
        model.set_training(False)
        arrays[name] = [model.forward_logits(
            emodarts.Tensor(test[0][:, None])).data]
        out[name] = {"clips_per_s": statistics.median(rates),
                     "ua_wa": sorted(scores)}
    return out


def graph(ctx, arrays, *, seed=60, rounds=1, eval_clips=64,
          paper_batches=(1, 2), pairs=10) -> dict:
    """On one batch of `batch_size` training clips, the two search steps,
    the weight step (coefficients frozen) and the coefficient step
    (weights frozen), as `search` runs them, and one training step of the
    workload's derived model. With tracemalloc on, each records the MB
    still allocated when the forward pass ends, which is what the graph
    holds until backward, the TOP_SITES allocation sites (file:line) that
    hold the most of it and their MB, the peak over forward and backward,
    and a sha256 of its gradients, which are set aside. Also the graph of
    an eval-mode forward pass of the derived model, with a graph, over
    `eval_clips` test clips, as perfbench's check phase builds one. After
    the rounds, each tree runs `paper_scale` once per batch size in
    `paper_batches`, each in a new process."""
    from emodarts import Tensor, cross_entropy, instantiate
    from emodarts.search import _frozen

    net = ctx.net
    xb, yb = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])
    derived = instantiate(ctx.genome, ctx.config, ctx.seed, ctx.spec.dims)
    weights, alphas = net.params(), net.arch_params()
    steps = {"weight_step": (net, weights, alphas),
             "coefficient_step": (net, alphas, weights),
             "derived_step": (derived, derived.params(), [])}
    out = {}
    for name, (model, learned, frozen) in steps.items():
        with _frozen(frozen):
            _, held, peak, top = traced(
                lambda: cross_entropy(model.forward_logits(
                    Tensor(xb[:, None])), yb), lambda loss: loss.backward())
        arrays[name] = [p.grad for p in learned]
        digest = hashlib.sha256()
        for p in learned:
            digest.update(np.ascontiguousarray(p.grad).tobytes())
            p.grad = None
        out[name] = {"forward_mb": held, "forward_sites_mb": top,
                     "peak_mb": peak, "grad_sha256": digest.hexdigest()}
    x_test = ctx.dataset.split(ctx.fold.test_idx[:eval_clips])[0]
    derived.set_training(False)
    logits, held, _, _ = traced(lambda: derived.forward_logits(
        Tensor(x_test[:, None])))
    assert logits.requires_grad
    out["derived_eval_graph"] = {"forward_mb": held}
    return out


def traced(forward, backward=lambda out: None) -> tuple:
    """(forward(), the MB still allocated when it returns, the peak MB over
    it and backward(its result), and sites(), the sites that hold the most
    of what forward() left allocated), under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = forward()
        held, peak = tracemalloc.get_traced_memory()
        found = sites()
        tracemalloc.reset_peak()    # the snapshot's own bytes are gone
        backward(out)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        return out, (held - before) / MB, (peak - before) / MB, found
    finally:
        tracemalloc.stop()


def sites(n=TOP_SITES) -> list:
    """[file:line, MB] of the n allocation sites, by the innermost frame,
    that hold the most traced bytes now, largest first; a file is named by
    its directory and name (a numpy function written in Python, such as
    np.zeros_like, names its own file)."""
    stats = tracemalloc.take_snapshot().statistics("lineno")[:n]
    return [[f"{'/'.join(Path(s.traceback[0].filename).parts[-2:])}:"
             f"{s.traceback[0].lineno}", s.size / MB] for s in stats]


def paper_scale(batch: int) -> dict:
    """One weight step of a supernet at `SearchConfig()` defaults on
    PAPER_HW random clips, timed, then the process's max RSS, then a second
    weight step traced for its end-of-forward graph: runs inside the tree
    being measured, in a process of its own capped at PAPER_LIMIT_GB of
    address space."""
    from emodarts import SearchConfig, Tensor, build_supernet, cross_entropy
    from emodarts.search import _frozen

    limit = PAPER_LIMIT_GB << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    seed = graph.__kwdefaults__["seed"]
    config = SearchConfig(seed=seed)
    rng = np.random.default_rng(seed)
    net = build_supernet(config, rng, input_hw=PAPER_HW)
    x = Tensor(rng.standard_normal((batch, 1, *PAPER_HW)))
    y = rng.integers(0, config.classes, batch)
    forward = lambda: cross_entropy(net.forward_logits(x), y)
    with _frozen(net.arch_params()):
        t0 = time.perf_counter()
        loss = forward()
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        del loss
        max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for p in net.params():
            p.grad = None
        graph_mb = traced(forward, lambda loss: loss.backward())[1]
    return {"batch": batch, "forward_s": t1 - t0, "backward_s": t2 - t1,
            "max_rss_mb": max_rss * 1024 / MB, "graph_mb": graph_mb}


def recurrence(ctx, arrays, *, seed=80, rounds=6, reps=30, pairs=10) -> dict:
    """Every `_recurrence` call that one forward pass of the supernet and
    of the CNN-LSTM baseline make on `batch_size` training clips, one entry
    per cell type and lockstep layer count K (`lstm_k6`, ...), and the
    baseline's K = 1 layer (`baseline_lstm_k1`). Each gets random inputs
    and weights of its call's shapes; `reps` calls each of the node's
    forward and of its vjp alone, and each median in ms. Set aside: the
    output, the gradient at the gate pre-activations (dz) that the time
    loop's back returns, and the vjp's dx, dW and db."""
    import emodarts.ops as ops
    from emodarts import Baseline, Tensor

    real, found = ops._recurrence, {}
    xb = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])[0]
    models = {"": ctx.net, "baseline_": Baseline(
        "cnn_lstm", ctx.config, ctx.seed, ctx.spec.dims)}
    try:
        for prefix, model in models.items():
            def spy(cell, x, ws, bs, prefix=prefix):
                found.setdefault(f"{prefix}{cell}_k{len(ws)}",
                                 (cell, x.shape, len(ws), ws[0].shape))
                return real(cell, x, ws, bs)
            ops._recurrence = spy
            model.forward_logits(Tensor(xb[:, None]))
    finally:
        ops._recurrence = real
    rng = np.random.default_rng(ctx.seed)
    out = {}
    for entry, (cell, xshape, k, wshape) in sorted(found.items()):
        gates, loop = ops._RECURRENT_TABLE[cell]
        scale = (wshape[1] // gates) ** -0.5
        leaves = [Tensor(rng.standard_normal(xshape), requires_grad=True)] + [
            Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)
            for shape in [wshape] * k + [wshape[1:]] * k]
        forward = lambda: real(cell, leaves[0], leaves[1:k + 1],
                               leaves[k + 1:])
        g = rng.standard_normal(forward().shape)
        kept = []

        def keeping(xz, wh):     # the loop, with dz kept as back returns it
            hs, back = loop(xz, wh)
            return hs, lambda g, wh: kept.append(back(g, wh)) or kept[-1]

        ops._RECURRENT_TABLE[cell] = (gates, keeping)
        try:
            node = forward()
            grads = node._vjp(g)
        finally:
            ops._RECURRENT_TABLE[cell] = (gates, loop)
        arrays[entry] = [node.data, kept[0], *grads]
        node = forward()
        out[entry] = {"x": list(xshape), "w": list(wshape),
                      "fwd_ms": median_ms(forward, reps),
                      "vjp_ms": median_ms(lambda: node._vjp(g), reps)}
    return out


PROBES = {"conv": conv2d, "eval": evaluate, "memory": graph,
          "recurrence": recurrence}


def measure(probe: str, saved: str) -> dict:
    """One tree's round of a probe over every workload: runs inside the
    tree being measured. The arrays it sets aside go to the npz `saved`,
    keyed workload/entry/index."""
    from worker import WORKLOADS as SPECS, setup, warm_up

    fn, out, arrays = PROBES[probe], {}, {}
    for workload in WORKLOADS:
        ctx = setup(SPECS[workload], fn.__kwdefaults__["seed"])
        warm_up(ctx)
        found = {}
        out[workload] = fn(ctx, found)
        arrays.update({f"{workload}/{entry}/{i}": a
                       for entry, group in found.items()
                       for i, a in enumerate(group)})
    np.savez(saved, **arrays)
    return out


# ---- the driver ----

def run_arm(root: Path, argv: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def compare(base: list[float], change: list[float], better: str) -> dict:
    """CHANGE against PARENT, round by round; a tie wins for neither."""
    sign = 1 if better == "higher" else -1
    b, c = spread(base), spread(change)
    return {"parent": b, "change": c,
            "ratio_change_over_parent": c["median"] / b["median"],
            "pairs_won_by_change": sum(sign * (y - x) > 0
                                       for x, y in zip(base, change)),
            "median_gap_exceeds_parent_iqr":
                sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]}


def rounds(roots: dict, argv_of, n: int, runner=run_arm) -> list[dict]:
    """n rounds of {arm: runner(root, argv_of(round, arm))}, the arm order
    flipping each round."""
    out = []
    for i in range(n):
        order = ARMS if i % 2 == 0 else ARMS[::-1]
        out.append({arm: runner(roots[arm], argv_of(i, arm)) for arm in order})
    return out


def max_rel_diff(pairs) -> dict:
    """Per workload and entry, over (parent, change) maps of arrays keyed
    workload/entry/index: the largest |change - parent| entry over the
    largest |parent| entry."""
    top: dict = {}
    for parent, change in pairs:
        for key in parent:
            workload, entry, _ = key.split("/")
            gap, scale = top.setdefault(workload, {}).get(entry, (0.0, 0.0))
            top[workload][entry] = (
                max(gap, float(np.abs(change[key] - parent[key]).max())),
                max(scale, float(np.abs(parent[key]).max())))
    return {w: {e: gap / scale for e, (gap, scale) in entries.items()}
            for w, entries in top.items()}


def report(runs: list[dict], gaps: dict) -> dict:
    """Per workload, entry and field of a probe's rounds: a timed field
    compared round by round, any other one as each tree's first-round value
    and whether every run gave the same; and the entry's max_rel_diff."""
    doc: dict = {}
    for workload, entries in runs[0]["parent"].items():
        for entry, fields in entries.items():
            row = doc.setdefault(workload, {})[entry] = {}
            for field in fields:
                parent, change = ([r[arm][workload][entry][field]
                                   for r in runs] for arm in ARMS)
                if field in BETTER:
                    row[field] = compare(parent, change, BETTER[field])
                else:
                    row[field] = {"parent": parent[0], "change": change[0],
                                  "equal": all(v == parent[0]
                                               for v in parent + change)}
            if entry in gaps.get(workload, {}):
                row["max_rel_diff"] = gaps[workload][entry]
    return doc


def perfbench_pairs(roots: dict, better: dict, seed: int, pairs: int) -> dict:
    """Per workload, `pairs` rounds of `perfbench/run.py --seconds 25
    --trace 0` at seeds seed .. seed + pairs - 1, and every end-to-end
    metric compared."""
    seeds = [seed + i for i in range(pairs)]
    doc = {}
    for workload in WORKLOADS:
        # run.py exits non-zero, which stops this script, unless the run
        # is correct with no failed operation
        runs = rounds(roots, lambda i, arm: [
            "perfbench/run.py", "--workload", workload, "--seed",
            str(seeds[i]), "--seconds", "25", "--trace", "0"], pairs)
        doc[workload] = {"seeds": seeds, **{
            m: compare([r["parent"]["metrics"][m]["value"] for r in runs],
                       [r["change"]["metrics"][m]["value"] for r in runs], b)
            for m, b in better.items()}}
    return doc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(*argv[1:])))
        return 0
    if argv[:1] == ["--paper-scale"]:
        print(json.dumps(paper_scale(int(argv[1]))))
        return 0
    if len(argv) != 4 or argv[0] not in PROBES:
        sys.exit(__doc__.split("\n\n")[1])
    probe, fn = argv[0], PROBES[argv[0]]
    parent, change, out = (Path(a).resolve() for a in argv[1:])
    sys.path.insert(0, str(change / "perfbench"))
    import run as perfbench_run
    const = fn.__kwdefaults__
    script = str(Path(__file__).resolve())
    better = {m["name"]: m["better"] for m in json.loads(
        (change / "BENCHMARK.json").read_text())["end_to_end"]}
    roots = {"parent": parent, "change": change}
    doc = {"machine": perfbench_run.machine(perfbench_run.child_env()),
           "method": __doc__.split("\n\n", 2)[2].strip() + "\n\n"
           + " ".join(fn.__doc__.split()), "probe": probe, **const}
    with tempfile.TemporaryDirectory() as tmp:
        def saved(i, arm):
            return str(Path(tmp) / f"{arm}{i}.npz")

        def load(path):
            with np.load(path) as f:
                return dict(f)

        runs = rounds(roots, lambda i, arm: [script, "--measure", probe,
                                             saved(i, arm)], const["rounds"])
        gaps = max_rel_diff([load(saved(i, arm)) for arm in ARMS]
                            for i in range(const["rounds"]))
    doc[fn.__name__] = report(runs, gaps)
    if probe == "memory":
        doc["paper_scale"] = {arm: [
            run_arm(roots[arm], [script, "--paper-scale", str(b)])
            for b in const["paper_batches"]] for arm in ARMS}
    doc["perfbench"] = perfbench_pairs(roots, better, const["seed"] + 1,
                                       const["pairs"])
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
