"""One benchmark workload in its own process.

run.py starts this script with the BLAS thread count fixed in the
environment and the checkout's `src` on PYTHONPATH; it prints one JSON
object as its last stdout line. `--setup-only` stops after import, corpus
and model construction, which is what run.py times for `setup_s`.

A run repeats whole rounds until the next round would overrun
`--seconds` by more than half a round. A round calls, in order: `study` (study workload only),
`instantiate` on the workload's fixed genome, `Baseline("cnn_lstm")` and
a short block; then for each bilevel epoch one `search` call and another
short block, with `extract_genome` after the last `search`. A short block
is one `train_derived` call per epoch of the fixed genome, several
`evaluate` calls, and one `train_derived` call per baseline epoch. The
correctness checks run after the timed rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emodarts import (CNN_OPS, Baseline, SearchConfig, Tensor, build_supernet,
                      conv2d, cross_entropy, deserialize, evaluate, extract_genome,
                      instantiate, load_checkpoint, reduction_positions,
                      run_fold, save_checkpoint, search, serialize,
                      speaker_cv_split, study, synth_dataset, train_derived)
from emodarts.harness import SCOPE_OPS, fold_seed
from emodarts.ops import lstm_seq, rnn_seq

import checks
import layers
from probe import REFERENCE_S, Probe
from spans import Spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EVAL_BATCH = 64          # evaluate()'s default batch size


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple              # clip (H, W)
    speakers: int
    per: int                 # clips per class per speaker
    config: dict             # SearchConfig fields
    search_epochs: int       # per round
    train_epochs: int        # per block, fixed genome
    eval_reps: int           # evaluate() calls per block
    baseline_epochs: int     # per block, CNN-LSTM baseline
    study_scopes: tuple = () # non-empty: the round starts with study()
    study_folds: int = 5
    study_jobs: int = 2
    study_budget: tuple = (1, 1)   # (search, train) epochs per fold run

    @property
    def genome_path(self) -> Path:
        return HERE / "genomes" / f"{self.name}.json"


WORKLOADS = {
    "desk_cnn": Workload(
        "desk_cnn", (32, 32), 8, 10,
        dict(C=2, N=1, B_cnn=2, B_seqnn=2, channels=8, hidden=32,
             batch_size=16),
        search_epochs=1, train_epochs=2, eval_reps=6, baseline_epochs=4),
    "long_seq": Workload(
        "long_seq", (64, 16), 8, 10,
        dict(C=1, N=2, B_cnn=2, B_seqnn=2, channels=4, hidden=32,
             batch_size=16),
        search_epochs=1, train_epochs=2, eval_reps=6, baseline_epochs=4),
    "study": Workload(
        "study", (16, 16), 10, 2,
        dict(C=3, N=1, B_cnn=1, B_seqnn=1, channels=4, hidden=16,
             batch_size=16, seq_scope=SCOPE_OPS["LSTM Only"]),
        search_epochs=2, train_epochs=4, eval_reps=8, baseline_epochs=4,
        study_scopes=("LSTM Only", "RNN-Att. Only")),
}


@dataclass
class Context:
    spec: Workload
    seed: int
    config: SearchConfig
    dataset: object
    folds: list
    net: object
    genome: object
    trainval: np.ndarray      # fold 0's train and val clips together

    @property
    def fold(self):
        return self.folds[0]


def setup(spec: Workload, seed: int) -> Context:
    """Corpus and model construction, the part of set-up after import."""
    config = SearchConfig(**spec.config, epochs=1, seed=seed)
    dataset = synth_dataset(spec.speakers, spec.per, dims=spec.dims,
                            noise=0.1, seed=seed)
    folds = speaker_cv_split(dataset, n_folds=5, seed=seed)
    net = build_supernet(config, np.random.default_rng(seed),
                         input_hw=spec.dims)
    genome = deserialize(spec.genome_path.read_text(encoding="utf-8"))
    instantiate(genome, config, seed, spec.dims)
    Baseline("cnn_lstm", config, seed, spec.dims)
    trainval = np.concatenate([folds[0].train_idx, folds[0].val_idx])
    return Context(spec, seed, config, dataset, folds, net, genome, trainval)


def warm_up(ctx: Context) -> None:
    """One forward and backward pass of a throwaway supernet. The first
    large frees of a process raise glibc's mmap threshold, and calls made
    before that run markedly slower (evaluate by about a third), so every
    timed call waits until the allocator is in the state a long search
    runs in."""
    net = build_supernet(ctx.config, np.random.default_rng([ctx.seed, 2]),
                         input_hw=ctx.spec.dims)
    x, y = ctx.dataset.split(ctx.fold.train_idx[:ctx.config.batch_size])
    cross_entropy(net.forward_logits(Tensor(x[:, None])), y).backward()


class Counter:
    """The library calls of a run, and the machine-speed probe that ticks
    between them."""

    def __init__(self, probe: Probe):
        self.attempted = 0
        self.failed = 0
        self.probe = probe


def timed(counter: Counter, spans: Spans, layer: str, name: str, fn, *args,
          **kwargs):
    """Call fn, counting it as one operation; returns (result, seconds).
    Probe ticks that fn's hooks ran are not counted in its seconds."""
    counter.attempted += 1
    try:
        with spans.span(layer, name):
            ticked = counter.probe.spent
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            sec = time.perf_counter() - t0 - (counter.probe.spent - ticked)
    except Exception:
        counter.failed += 1
        raise
    counter.probe.tick_if_due()
    return out, sec


def short_block(ctx: Context, counter: Counter, spans: Spans, model, base,
                r: dict) -> None:
    """Train the fixed genome, evaluate it and train the baseline, with
    the three kinds of call interleaved evenly through the block."""
    spec, cfg, ds = ctx.spec, ctx.config, ctx.dataset
    trainval = ds.split(ctx.trainval)
    test = ds.split(ctx.fold.test_idx)
    plan = sorted(((i + 0.5) / n, kind) for kind, n in (
        ("train", spec.train_epochs), ("eval", spec.eval_reps),
        ("baseline", spec.baseline_epochs)) for i in range(n))
    for _, kind in plan:
        if kind == "train":
            hist, sec = timed(counter, spans, "derived", "train_derived",
                              train_derived, model, trainval, cfg, epochs=1)
            r["train_loss"].append(hist[-1].loss)
        elif kind == "eval":
            r["ua_wa"], sec = timed(counter, spans, "derived", "evaluate",
                                    evaluate, model, test)
            sec = len(ctx.fold.test_idx) / sec
        else:
            _, sec = timed(counter, spans, "derived", "train_derived:baseline",
                           train_derived, base, trainval, cfg, epochs=1)
        r[kind].append(sec)


def run_round(ctx: Context, counter: Counter, spans: Spans,
              on_step=None) -> dict:
    spec, cfg, ds = ctx.spec, ctx.config, ctx.dataset
    r = {"search": [], "train": [], "train_loss": [], "eval": [],
         "baseline": []}
    t_round, ticked = time.perf_counter(), counter.probe.spent
    if spec.study_scopes:
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        (results, scatter), sec = timed(
            counter, spans, "harness", "study", study, ds, cfg,
            scopes=list(spec.study_scopes), n_folds=spec.study_folds,
            seed=ctx.seed, search_epochs=spec.study_budget[0],
            train_epochs=spec.study_budget[1], jobs=spec.study_jobs)
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        busy = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        r.update(study_s=sec, study_runs=len(results), study_busy_s=busy,
                 study_results=results, study_scatter=scatter)
    model, r["instantiate"] = timed(
        counter, spans, "derived", "instantiate", instantiate, ctx.genome,
        cfg, ctx.seed, spec.dims)
    base, _ = timed(counter, spans, "harness", "Baseline", Baseline,
                    "cnn_lstm", cfg, ctx.seed, spec.dims)
    # a short block runs before the first search epoch and after each
    # one, so that the short stages' samples span the round: the machine's
    # speed drifts over seconds, and a median over a few moments of the
    # round would follow that drift
    short_block(ctx, counter, spans, model, base, r)
    train = ds.split(ctx.fold.train_idx)
    val = ds.split(ctx.fold.val_idx)
    # a traced round's hook records the sub-steps instead of ticking
    on_step = on_step or counter.probe.tick_if_due
    for epoch in range(spec.search_epochs):
        _, sec = timed(counter, spans, "search", "search", search, ctx.net,
                       train, val, cfg, on_step=on_step)
        r["search"].append(sec)
        if epoch == spec.search_epochs - 1:
            r["searched_genome"], r["extract"] = timed(
                counter, spans, "genome", "extract_genome", extract_genome,
                ctx.net)
        short_block(ctx, counter, spans, model, base, r)
    # one fold run at this workload's budget: search, derive, evaluate
    r["fold_s"] = (sum(r["search"]) + r["extract"] + r["instantiate"]
                   + sum(r["train"]) + len(ctx.fold.test_idx) / r["eval"][0])
    r["model"] = model
    r["seconds"] = time.perf_counter() - t_round
    # without the probe's ticks: a traced round ticks less inside search
    r["library_s"] = r["seconds"] - (counter.probe.spent - ticked)
    return r


def end_to_end(rounds: list[dict], speed: float = 1.0) -> dict:
    """The rounds' medians; times are multiplied, and rates divided, by
    `speed`, the probe's reference-over-run speed factor."""
    def median(key):
        return statistics.median(v for r in rounds for v in r[key])

    if "study_s" in rounds[0]:
        runs_per_h = statistics.median(
            3600.0 * r["study_runs"] / r["study_s"] for r in rounds)
    else:
        runs_per_h = 3600.0 / statistics.median(r["fold_s"] for r in rounds)
    return {
        "search_epoch_s": (median("search") * speed, "s"),
        "train_epoch_s": (median("train") * speed, "s"),
        "eval_clips_per_s": (median("eval") / speed, "clips/s"),
        "baseline_epoch_s": (median("baseline") * speed, "s"),
        "fold_runs_per_h": (runs_per_h / speed, "runs/h"),
    }


# ---- correctness checks (outside the timed rounds) ----

def conv_configs(ctx: Context):
    """(name, weight shape, conv2d arguments) for every convolution the
    workload's networks run."""
    cfg = ctx.config
    ch = cfg.channels
    red = reduction_positions(cfg.C)
    out = [("stem 3x3", (ch, 1, 3, 3), dict(padding=(1, 1))),
           ("pointwise 1x1", (ch, ch, 1, 1), {}),
           ("baseline 2x2 s2", (cfg.baseline_channels, 1, 2, 2),
            dict(stride=(2, 2), padding=(2, 2)))]
    if any(k - 1 in red for k in range(1, cfg.C)):
        out.append(("factorized reduce 1x1 s2", (ch // 2, ch, 1, 1),
                    dict(stride=(2, 2))))
    for s in sorted({1, 2} if red else {1}):
        out += [
            (f"dilated 3x3 s{s}", (ch, ch, 3, 3),
             dict(stride=(s, s), padding=(2, 2), dilation=(2, 2))),
            (f"dilated 5x5 s{s}", (ch, ch, 5, 5),
             dict(stride=(s, s), padding=(4, 4), dilation=(2, 2))),
            (f"depthwise 3x3 s{s}", (ch, 1, 3, 3),
             dict(stride=(s, s), padding=(1, 1), groups=ch)),
            (f"depthwise 5x5 s{s}", (ch, 1, 5, 5),
             dict(stride=(s, s), padding=(2, 2), groups=ch)),
            (f"7x1 s{s}", (ch, ch, 7, 1),
             dict(stride=(s, 1), padding=(3, 0))),
            (f"1x7 s{s}", (ch, ch, 1, 7),
             dict(stride=(1, s), padding=(0, 3))),
        ]
    return out


def check_kernels(ctx: Context, rng) -> list:
    h, w = ctx.spec.dims
    found = []
    for name, wshape, args in conv_configs(ctx):
        cin = wshape[1] * args.get("groups", 1)
        x = rng.standard_normal((2, cin, h, w))
        wt = rng.standard_normal(wshape)
        out = conv2d(Tensor(x), Tensor(wt), **args).data
        found.append(checks.check_conv(name, x, wt, out, **args))
    hid = ctx.config.hidden
    x = rng.standard_normal((2, 12, hid))
    for kind, fn, gates in (("lstm", lstm_seq, 4), ("rnn", rnn_seq, 1)):
        wt = rng.uniform(-0.3, 0.3, (2 * hid, gates * hid))
        b = rng.uniform(-0.3, 0.3, gates * hid)
        out = fn(Tensor(x), Tensor(wt), Tensor(b)).data
        found.append(checks.check_recurrence(kind, x, wt, b, out))
    return found


def check_gradients(ctx: Context, rng, n_entries: int = 3) -> list:
    net = ctx.net
    xb, yb = ctx.dataset.split(ctx.fold.val_idx[:4])
    xb = xb[:, None]
    weights = net.params()
    alphas = net.arch_params()
    for p in weights + alphas:
        p.grad = None
    cross_entropy(net.forward_logits(Tensor(xb)), yb).backward()

    def loss_of():
        return cross_entropy(net.forward_logits(Tensor(xb)), yb).item()

    found = []
    for group, params in (("coefficient", alphas), ("weight", weights)):
        engine, diffs = [], []
        for _ in range(n_entries):
            p = params[int(rng.integers(len(params)))]
            ix = tuple(int(rng.integers(n)) for n in p.shape)
            engine.append(p.grad[ix])
            diffs.append(checks.differences(loss_of, p.data, ix, 1e-6))
        found.append(checks.check_gradients(group, engine, diffs))
    for p in weights + alphas:
        p.grad = None
    return found


def check_isolation(ctx: Context) -> checks.Check:
    net = ctx.net
    weights, alphas = net.params(), net.arch_params()

    def digest(params):
        h = hashlib.sha256()
        for p in params:
            h.update(p.data.tobytes())
        return h.hexdigest()

    events = []

    def hook(ev):
        events.append((ev["event"], digest(alphas), digest(weights)))

    ds = ctx.dataset
    batch = ctx.config.batch_size   # one coefficient and one weight step
    search(net, ds.split(ctx.fold.train_idx[:batch]),
           ds.split(ctx.fold.val_idx[:batch]), ctx.config, on_step=hook)
    return checks.check_isolation(events)


def eval_logits(model, x) -> np.ndarray:
    x = x[:, None]
    model.set_training(False)
    out = np.concatenate([
        model.forward_logits(Tensor(x[lo:lo + EVAL_BATCH])).data
        for lo in range(0, len(x), EVAL_BATCH)])
    model.set_training(True)
    return out


def run_checks(ctx: Context, rounds: list[dict]) -> list:
    rng = np.random.default_rng([ctx.seed, 0xC4EC])
    last = rounds[-1]
    found = check_kernels(ctx, rng)
    cfg = ctx.config
    found.append(checks.check_genome(
        last["searched_genome"], ctx.net.alpha_tables(),
        CNN_OPS, ctx.net.seq_scope,
        cfg.B_cnn, cfg.B_seqnn))
    found.append(checks.check_roundtrip(last["searched_genome"], serialize,
                                        deserialize))
    found.append(checks.check_roundtrip(ctx.genome, serialize, deserialize))
    found += check_gradients(ctx, rng)
    found.append(check_isolation(ctx))
    found.append(checks.check_loss_falls(rounds[0]["train_loss"]))

    model = last["model"]
    x_test, y_test = ctx.dataset.split(ctx.fold.test_idx)
    ua, wa = last["ua_wa"]
    logits = eval_logits(model, x_test)
    found.append(checks.check_metrics(ua, wa, y_test, logits))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"check_{ctx.spec.name}_{os.getpid()}.ckpt"
    try:
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)[0]
    finally:
        path.unlink(missing_ok=True)
    found.append(checks.check_same_logits(logits, eval_logits(loaded, x_test)))

    if ctx.spec.study_scopes:
        results, scatter = last["study_results"], last["study_scatter"]
        scope, split = ctx.spec.study_scopes[0], ctx.folds[0]
        pooled = next(r for r in results
                      if r.scope == scope and r.fold == split.fold)
        rerun = run_fold(ctx.dataset, split, cfg, scope,
                         fold_seed(ctx.seed, scope, split.fold),
                         search_epochs=ctx.spec.study_budget[0],
                         train_epochs=ctx.spec.study_budget[1])
        found.append(checks.check_rerun(pooled, rerun, serialize))
        found.append(checks.check_scatter(results, scatter))
    return found


# ---- entry point ----

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    ctx = setup(spec, args.seed)
    if args.setup_only:
        return 0
    warm_up(ctx)

    probe = Probe()
    probe.tick()
    counter = Counter(probe)
    if args.trace:
        # one untraced round, then the same round traced: their difference
        # is the tracing overhead
        plain = run_round(ctx, counter, Spans(False))
        spans = Spans(True)
        steps: list = []

        def on_step(ev):
            steps.append((ev["event"], time.perf_counter()))

        traced = run_round(ctx, counter, spans, on_step=on_step)
        rounds = [plain, traced]
        OUT.mkdir(exist_ok=True)
        metrics = layers.measure(ctx, traced, spans, steps,
                                 WORKLOADS["study"], OUT)
        metrics["trace.overhead_pct"] = (
            100.0 * (traced["library_s"] - plain["library_s"])
            / plain["library_s"],
            "%")
    else:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(ctx, counter, Spans(False)))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["seconds"] for r in rounds)
            # the last round may overrun by up to half a round, so that a
            # slow host still gets two rounds of `study`
            if elapsed + typical / 2 > args.seconds:
                break
        metrics = end_to_end(rounds, probe.factor())

    found = run_checks(ctx, rounds)
    for c in found:
        print(c.line(), file=sys.stderr)
    doc = {
        "correct": all(c.ok for c in found),
        "attempted": counter.attempted,
        "failed": counter.failed,
        "rounds": len(rounds),
        "round_s": [r["seconds"] for r in rounds],
        "samples": {k: [v for r in rounds for v in r[k]]
                    for k in ("search", "train", "eval", "baseline")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "speed": {"factor": probe.factor(), "reference_s": REFERENCE_S,
                  "ticks_s": probe.ticks},
        "unscaled": {k: v for k, (v, _) in end_to_end(rounds).items()},
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in found],
    }
    if args.trace:
        spans.write(OUT / f"trace_{spec.name}_seed{args.seed}.json", {
            "workload": spec.name, "seed": args.seed,
            "untraced_round_s": plain["library_s"],
            "traced_round_s": traced["library_s"],
            "end_to_end_untraced": end_to_end([plain]),
            "end_to_end_traced": end_to_end([traced])})
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
