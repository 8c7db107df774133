"""Per-layer measurements for the traced run.

Layers are the emodarts modules. The tensor, ops and cell probes run at
fixed shapes (the desk shape B=16, C=8, 32x32 for CNN work; B=16, T=32,
width 32 for sequence work) so they read the same on every workload. The
supernet, search, optim, genome and derived probes use the workload's own
configuration, and the harness probes use the study workload's corpus and
budgets except where a metric is about the workload's own corpus.

Every forward/backward probe builds a fresh graph per repetition, drops
the first repetition as warm-up and reports the median of the rest. A
backward is driven by a fixed upstream gradient: loss = sum(out * G).
"""

from __future__ import annotations

import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import wave

import numpy as np

from emodarts import (CNN_OPS, SEQNN_OPS, SGD, Adam, MixedEdge, SearchConfig,
                      Tensor,
                      augment_scope, build_supernet, clip_grad_norm, conv2d,
                      cross_entropy, extract_genome, flatten_bridge,
                      instantiate, load_checkpoint, load_edset, load_wav,
                      mfcc, pool_downsample, run_fold, save_checkpoint,
                      save_edset, speaker_cv_split, study, synth_dataset)
from emodarts.harness import fold_seed
from emodarts.ops import build_cnn_op, build_seq_op

REPS = 3
DESK = (16, 8, 32, 32)       # B, C, H, W
SEQ = (16, 32, 32)           # B, T, width
CNN_PROBED = [n for n in CNN_OPS if n not in ("skip_connect", "none")]
CONV_PROBES = {
    # name: (weight shape, conv2d arguments)
    "dense_dil": ((8, 8, 3, 3), dict(padding=2, dilation=2)),
    "depthwise": ((8, 1, 5, 5), dict(padding=2, groups=8)),
    "pointwise": ((8, 8, 1, 1), {}),
    "7x1": ((8, 8, 7, 1), dict(padding=(3, 0))),
}
STAGES = ("stem", "cnn_cells", "bridge", "seq_cells", "head")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in CONV_PROBES:
        out += [(f"tensor.conv2d_{name}.fwd_ms", "ms"),
                (f"tensor.conv2d_{name}.bwd_ms", "ms")]
    out.append(("tensor.backward_us_per_node", "us"))
    for name in CNN_PROBED:
        for s in (1, 2):
            out += [(f"ops.{name}.s{s}.fwd_ms", "ms"),
                    (f"ops.{name}.s{s}.bwd_ms", "ms")]
    for name in SEQNN_OPS:
        out += [(f"ops.{name}.fwd_ms", "ms"), (f"ops.{name}.bwd_ms", "ms")]
    for kind in ("cnn", "seq"):
        out += [(f"cell.mixed_edge_{kind}.fwd_ms", "ms"),
                (f"cell.mixed_edge_{kind}.bwd_ms", "ms")]
    out.append(("cell.mix_overhead_ms", "ms"))
    for stage in STAGES:
        out += [(f"supernet.{stage}.fwd_ms", "ms"),
                (f"supernet.{stage}.bwd_ms", "ms")]
    out += [("supernet.graph_nodes", "count"),
            ("supernet.graph_bytes", "bytes"),
            ("search.alpha_step_ms", "ms"), ("search.weight_step_ms", "ms"),
            ("optim.sgd_step_ms", "ms"), ("optim.adam_step_ms", "ms"),
            ("optim.clip_grad_norm_ms", "ms"),
            ("genome.extract_ms", "ms"),
            ("derived.instantiate_ms", "ms"), ("derived.train_step_ms", "ms"),
            ("derived.eval_batch_ms", "ms"),
            ("derived.checkpoint_save_ms", "ms"),
            ("derived.checkpoint_load_ms", "ms"),
            ("features.synth_dataset_ms", "ms"), ("features.mfcc_ms", "ms"),
            ("features.edset_save_ms", "ms"),
            ("features.edset_load_ms", "ms"),
            ("harness.speaker_cv_split_ms", "ms"), ("harness.run_fold_s", "s"),
            ("harness.task_pickle_bytes", "count"),
            ("harness.pool_busy_ratio", "ratio"),
            ("cli.import_ms", "ms"),
            ("trace.overhead_pct", "%")]
    return out


def _ms(samples) -> float:
    return 1000.0 * statistics.median(samples)


def _repeat(fn, reps: int = REPS) -> list[float]:
    """Seconds per call of fn, after one warm-up call."""
    fn()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def fwd_bwd(forward, params, rng, reps: int = REPS) -> tuple[float, float]:
    """Median forward and backward milliseconds of forward()."""
    fw, bw, upstream = [], [], None
    for rep in range(reps + 1):
        for p in params:
            p.grad = None
        t0 = time.perf_counter()
        out = forward()
        t1 = time.perf_counter()
        if upstream is None:
            upstream = Tensor(rng.standard_normal(out.shape))
        loss = (out * upstream).sum()
        t2 = time.perf_counter()
        if loss.requires_grad:
            loss.backward()
        t3 = time.perf_counter()
        if rep:
            fw.append(t1 - t0)
            bw.append(t3 - t2)
    for p in params:
        p.grad = None
    return _ms(fw), _ms(bw)


def _leaf(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---- tensor, ops, cell: fixed shapes ----

def probe_tensor(rng, out: dict) -> None:
    x = _leaf(rng, DESK)
    for name, (wshape, args) in CONV_PROBES.items():
        w = _leaf(rng, wshape)
        f, b = fwd_bwd(lambda: conv2d(x, w, **args), [x, w], rng)
        out[f"tensor.conv2d_{name}.fwd_ms"] = f
        out[f"tensor.conv2d_{name}.bwd_ms"] = b
    # engine bookkeeping: a long chain of nodes that each do almost nothing
    n = 4000
    leaf = _leaf(rng, (4,))

    def chain_backward():
        y = leaf
        for _ in range(n):
            y = y * 1.0
        loss = y.sum()
        t0 = time.perf_counter()
        loss.backward()
        return time.perf_counter() - t0

    chain_backward()
    out["tensor.backward_us_per_node"] = 1e6 * statistics.median(
        chain_backward() for _ in range(REPS)) / (n + 1)


def probe_ops(rng, out: dict) -> None:
    x = _leaf(rng, DESK)
    for name in CNN_PROBED:
        for s in (1, 2):
            op = build_cnn_op(name, DESK[1], s, rng)
            f, b = fwd_bwd(lambda: op(x), op.params() + [x], rng)
            out[f"ops.{name}.s{s}.fwd_ms"] = f
            out[f"ops.{name}.s{s}.bwd_ms"] = b
    q = _leaf(rng, SEQ)
    for name in SEQNN_OPS:
        op = build_seq_op(name, SEQ[2], SEQ[2], rng)
        f, b = fwd_bwd(lambda: op(q), op.params() + [q], rng)
        out[f"ops.{name}.fwd_ms"] = f
        out[f"ops.{name}.bwd_ms"] = b


def probe_cells(rng, out: dict) -> None:
    x = _leaf(rng, DESK)
    ops = [build_cnn_op(n, DESK[1], 1, rng) for n in CNN_OPS]
    edge = MixedEdge([build_cnn_op(n, DESK[1], 1, rng) for n in CNN_OPS])
    alpha = _leaf(rng, (len(CNN_OPS),))
    fw, bw, overhead = [], [], []
    # each repetition times the edge and then its ops one by one, so the
    # difference compares calls made a moment apart
    for _ in range(REPS):
        f, b = fwd_bwd(lambda: edge(x, alpha), edge.params() + [x, alpha],
                       rng, reps=1)
        parts = sum(sum(fwd_bwd(lambda: op(x), op.params() + [x], rng,
                                reps=1)) for op in ops)
        fw.append(f)
        bw.append(b)
        overhead.append(f + b - parts)
    out["cell.mixed_edge_cnn.fwd_ms"] = statistics.median(fw)
    out["cell.mixed_edge_cnn.bwd_ms"] = statistics.median(bw)
    out["cell.mix_overhead_ms"] = statistics.median(overhead)
    scope = augment_scope(SEQNN_OPS)
    q = _leaf(rng, SEQ)
    edge = MixedEdge([build_seq_op(n, SEQ[2], SEQ[2], rng) for n in scope])
    alpha = _leaf(rng, (len(scope),))
    f, b = fwd_bwd(lambda: edge(q, alpha), edge.params() + [q, alpha], rng)
    out["cell.mixed_edge_seq.fwd_ms"] = f
    out["cell.mixed_edge_seq.bwd_ms"] = b


# ---- supernet, optim, genome: the workload's own network ----

def _stage_fns(net):
    """The supernet's forward pass cut into its five stages."""
    def cnn(s):
        s0 = s1 = s
        for pre0, pre1, cell in zip(net.cnn_pre0, net.cnn_pre1,
                                    net.cnn_cells):
            table = net.alpha("cnn_reduce" if cell.reduction else "cnn_normal")
            s0, s1 = s1, cell([pre0(s0), pre1(s1)], table)
        return s1

    def seq(q):
        q0 = q1 = q
        for pre0, pre1, cell in zip(net.seq_pre0, net.seq_pre1,
                                    net.seq_cells):
            q0, q1 = q1, cell([pre0(q0), pre1(q1)], net.alpha("seqnn"))
        return q1

    return {"stem": net.stem, "cnn_cells": cnn, "bridge": flatten_bridge,
            "seq_cells": seq, "head": lambda h: net.head(h.mean(axis=1))}


def graph_size(root: Tensor) -> tuple[int, int]:
    """(nodes, bytes of node values) reachable from root before backward."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node._parents)
    return len(seen), nbytes


def probe_supernet(ctx, rng, out: dict) -> None:
    cfg = ctx.config
    net = build_supernet(cfg, np.random.default_rng([ctx.seed, 1]),
                         input_hw=ctx.spec.dims)
    xb, yb = ctx.dataset.split(ctx.fold.train_idx[:cfg.batch_size])
    value = xb[:, None]
    weights, alphas = net.params(), net.arch_params()
    for stage, fn in _stage_fns(net).items():
        leaf = Tensor(value, requires_grad=True)
        f, b = fwd_bwd(lambda: fn(leaf), weights + alphas + [leaf], rng)
        out[f"supernet.{stage}.fwd_ms"] = f
        out[f"supernet.{stage}.bwd_ms"] = b
        value = fn(Tensor(value)).data

    loss = cross_entropy(net.forward_logits(Tensor(xb[:, None])), yb)
    out["supernet.graph_nodes"], out["supernet.graph_bytes"] = graph_size(loss)
    loss.backward()

    sgd = SGD(weights, lr=cfg.lr_max, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay)
    adam = Adam(alphas, lr=cfg.arch_lr, weight_decay=cfg.arch_weight_decay)
    out["optim.sgd_step_ms"] = _ms(_repeat(sgd.step))
    out["optim.adam_step_ms"] = _ms(_repeat(adam.step))
    out["optim.clip_grad_norm_ms"] = _ms(_repeat(
        lambda: clip_grad_norm(weights, 1.0)))
    out["genome.extract_ms"] = _ms(_repeat(lambda: extract_genome(net)))


# ---- derived, features, harness ----

def probe_derived(ctx, traced: dict, spans, out: dict, path) -> None:
    cfg, spec = ctx.config, ctx.spec
    out["derived.instantiate_ms"] = _ms(_repeat(
        lambda: instantiate(ctx.genome, cfg, ctx.seed, spec.dims)))
    steps = math.ceil(len(ctx.trainval) / cfg.batch_size)
    out["derived.train_step_ms"] = _ms(
        [d / steps for d in spans.durations("derived", "train_derived")])
    batches = math.ceil(len(ctx.fold.test_idx) / 64)   # evaluate()'s batch
    out["derived.eval_batch_ms"] = _ms(
        [d / batches for d in spans.durations("derived", "evaluate")])
    model = traced["model"]
    out["derived.checkpoint_save_ms"] = _ms(_repeat(
        lambda: save_checkpoint(model, path)))
    out["derived.checkpoint_load_ms"] = _ms(_repeat(
        lambda: load_checkpoint(path)))
    path.unlink()


def write_wav(path, rng, seconds: int = 8, rate: int = 16384) -> None:
    """16-bit mono clip: two tones with a slow amplitude wobble, plus noise."""
    t = np.arange(seconds * rate) / rate
    f0, f1 = rng.uniform(100.0, 400.0), rng.uniform(800.0, 2000.0)
    sig = (0.3 * np.sin(2 * np.pi * f0 * t) * (1 + 0.5 * np.sin(2 * np.pi * t))
           + 0.2 * np.sin(2 * np.pi * f1 * t)
           + 0.05 * rng.standard_normal(t.size))
    pcm = np.clip(sig * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def probe_features(ctx, rng, out: dict, out_dir) -> None:
    spec = ctx.spec
    out["features.synth_dataset_ms"] = _ms(_repeat(lambda: synth_dataset(
        spec.speakers, spec.per, dims=spec.dims, noise=0.1, seed=ctx.seed)))
    clips = [out_dir / f"clip{k}_{os.getpid()}.wav" for k in range(2)]
    for p in clips:
        write_wav(p, rng)
    per_clip = []
    for p in clips + clips:
        t0 = time.perf_counter()
        pool_downsample(mfcc(load_wav(p)))
        per_clip.append(time.perf_counter() - t0)
    for p in clips:
        p.unlink()
    out["features.mfcc_ms"] = _ms(per_clip[1:])
    edset = out_dir / f"corpus_{os.getpid()}.edset"
    out["features.edset_save_ms"] = _ms(_repeat(
        lambda: save_edset(ctx.dataset, edset)))
    out["features.edset_load_ms"] = _ms(_repeat(lambda: load_edset(edset)))
    edset.unlink()


def probe_harness(ctx, traced: dict, study_spec, out: dict) -> None:
    ds, cfg = ctx.dataset, ctx.config
    out["harness.speaker_cv_split_ms"] = _ms(_repeat(
        lambda: speaker_cv_split(ds, n_folds=5, seed=ctx.seed)))
    # the task tuple study() ships to a worker for this corpus
    task = (ds, ctx.fold, cfg, "emoDARTS", 0, "emodarts", False, 1, 1)
    out["harness.task_pickle_bytes"] = len(pickle.dumps(task))

    if ctx.spec.study_scopes:
        sds, scfg = ds, cfg
        wall, busy = traced["study_s"], traced["study_busy_s"]
        jobs = ctx.spec.study_jobs
    else:
        sds = synth_dataset(study_spec.speakers, study_spec.per,
                            dims=study_spec.dims, noise=0.1, seed=ctx.seed)
        scfg = SearchConfig(**study_spec.config, epochs=1, seed=ctx.seed)
        jobs = study_spec.study_jobs
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        study(sds, scfg, scopes=[study_spec.study_scopes[0]], n_folds=2,
              seed=ctx.seed, search_epochs=study_spec.study_budget[0],
              train_epochs=study_spec.study_budget[1], jobs=jobs)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        busy = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    out["harness.pool_busy_ratio"] = busy / (jobs * wall)
    scope = study_spec.study_scopes[0]
    split = speaker_cv_split(sds, n_folds=5, seed=ctx.seed)[0]
    t0 = time.perf_counter()
    run_fold(sds, split, scfg, scope, fold_seed(ctx.seed, scope, 0),
             search_epochs=study_spec.study_budget[0],
             train_epochs=study_spec.study_budget[1])
    out["harness.run_fold_s"] = time.perf_counter() - t0


def probe_import(out: dict) -> None:
    """Import emodarts in a fresh interpreter (same environment)."""
    def once():
        subprocess.run([sys.executable, "-c", "import emodarts"], check=True)

    out["cli.import_ms"] = _ms(_repeat(once))


def search_steps(steps) -> tuple[list[float], list[float]]:
    """Coefficient and weight step seconds from on_step event times."""
    alpha, weight, opened = [], [], {}
    for name, t in steps:
        phase = name.split("_", 1)[1]
        if name.startswith("pre_"):
            opened[phase] = t
        else:
            (alpha if phase == "alpha" else weight).append(t - opened[phase])
    return alpha, weight


def measure(ctx, traced: dict, spans, steps, study_spec, out_dir) -> dict:
    """Run every probe; returns {metric: (value, unit)} minus the tracing
    overhead, which only the caller knows."""
    rng = np.random.default_rng([ctx.seed, 0x1A7E])
    out: dict = {}
    alpha, weight = search_steps(steps)
    out["search.alpha_step_ms"] = _ms(alpha)
    out["search.weight_step_ms"] = _ms(weight)
    with spans.span("tensor", "probe"):
        probe_tensor(rng, out)
    with spans.span("ops", "probe"):
        probe_ops(rng, out)
    with spans.span("cell", "probe"):
        probe_cells(rng, out)
    with spans.span("supernet", "probe"):
        probe_supernet(ctx, rng, out)
    with spans.span("derived", "probe"):
        probe_derived(ctx, traced, spans, out,
                      out_dir / f"probe_{os.getpid()}.ckpt")
    with spans.span("features", "probe"):
        probe_features(ctx, rng, out, out_dir)
    with spans.span("harness", "probe"):
        probe_harness(ctx, traced, study_spec, out)
    with spans.span("cli", "probe"):
        probe_import(out)
    units = dict(metric_names())
    return {k: (float(v), units[k]) for k, v in out.items()}
