"""Acceptance gate: one test per release criterion.

Every test prints a single `[criterion NN] PASS/FAIL` line on the real
terminal (pytest capture is suspended for the verdict line) and fails
the suite when the bar is missed. Criteria are checked against
independent oracles written inline here, not against the library's own
helpers, except where the criterion is about an end-to-end run.
"""

import json
import time

import numpy as np
import pytest

from emodarts.cell import (Cell, MixedEdge, augment_scope, discretize_edge,
                           num_edges)
from emodarts.cli import EXIT_OK, main
from emodarts.derived import evaluate, instantiate, train_derived
from emodarts.features import (CLIP_SAMPLES, mfcc, pad_or_truncate,
                               pool_downsample, synth_dataset)
from emodarts.genome import _retain, detect_degenerate, deserialize, \
    extract_genome, serialize
from emodarts.harness import speaker_cv_split
from emodarts.metrics import ua, wa
from emodarts.ops import CNN_OPS, SEQNN_OPS, build_cnn_op, build_seq_op
from emodarts.search import search
from emodarts.supernet import build_supernet, reduction_positions
from emodarts.config import SearchConfig
from emodarts.tensor import Tensor, cross_entropy, finite_diff_grad

PASSIVE = {"skip_connect", "none"}


@pytest.fixture()
def verdict(capfd):
    def emit(num: int, name: str, ok: bool, detail: str = ""):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


# ---------------------------------------------------------------- helpers

def _separated(rng, shape, gap=0.013, shift=-0.37):
    """Values on a grid with spacing `gap`, so no two coordinates collide
    and none sits within a finite-difference step of a relu kink."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * gap + shift).reshape(shape)


def _central(f, x, ix, eps):
    orig = x[ix]
    x[ix] = orig + eps
    fp = f(x)
    x[ix] = orig - eps
    fm = f(x)
    x[ix] = orig
    return (fp - fm) / (2.0 * eps)


def _grad_matches(build_loss, target, clear, rtol=1e-3, atol=1e-5):
    """Compare backward() against central differences on one tensor.

    Coordinates where the default 1e-4 step disagrees get a second pass
    at 1e-6: a wide step straddling a pooling/relu kink is a property of
    the probe, not the engine. More than 10% suspect coordinates fails
    outright.
    """
    for p in clear:
        p.grad = None
    loss = build_loss()
    if loss.requires_grad:
        loss.backward()
    # A graph-free loss (the null op blocks gradients) means d/dx == 0.
    got = (np.zeros_like(target.data) if target.grad is None
           else target.grad.copy())

    def f(_):
        # finite_diff_grad perturbs target.data in place and the model
        # reads it through the live tensor, so the argument is unused.
        return float(build_loss().data)

    approx = finite_diff_grad(f, target.data)
    close = np.isclose(got, approx, rtol=rtol, atol=atol)
    if close.all():
        return True
    bad = np.argwhere(~close)
    if bad.shape[0] > max(4, got.size // 10):
        return False
    for raw in bad:
        ix = tuple(raw)
        refined = _central(f, target.data, ix, 1e-6)
        if not np.isclose(got[ix], refined, rtol=rtol, atol=atol):
            return False
    return True


def _pick(row: np.ndarray, names) -> tuple[str, float]:
    """Independent oracle for edge discretization: softmax, skip the
    null op, first strict maximum wins."""
    w = np.exp(row - row.max())
    w = w / w.sum()
    best, best_w = None, -1.0
    for k, name in enumerate(names):
        if name == "none":
            continue
        if w[k] > best_w:
            best, best_w = name, float(w[k])
    return best, best_w


# --------------------------------------------------------------- criteria

def test_criterion_01_gradients(verdict):
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    checked = 0
    failures = []

    cnn_cases = [(name, 1) for name in CNN_OPS] + [("sep_conv_5x5", 2)]
    for name, stride in cnn_cases:
        op = build_cnn_op(name, 3, stride, rng)
        t = Tensor(_separated(rng, (2, 3, 6, 6)), requires_grad=True)
        r = Tensor(rng.normal(size=op(Tensor(np.zeros((2, 3, 6, 6)))).shape))

        def build_loss(op=op, t=t, r=r):
            return (op(t) * r).sum()

        if not _grad_matches(build_loss, t, [t]):
            failures.append(f"cnn:{name}/s{stride}")
        checked += 1

    for name in SEQNN_OPS:
        op = build_seq_op(name, 3, 4, rng)
        t = Tensor(_separated(rng, (2, 4, 3)), requires_grad=True)
        r = Tensor(rng.normal(size=op(Tensor(np.zeros((2, 4, 3)))).shape))

        def build_loss(op=op, t=t, r=r):
            return (op(t) * r).sum()

        if not _grad_matches(build_loss, t, [t]):
            failures.append(f"seq:{name}")
        checked += 1

    cfg = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=1, channels=2, hidden=4,
                       seq_scope=("rnn_1",), epochs=1, batch_size=4,
                       dropout=0.0, seed=0)
    net = build_supernet(cfg, np.random.default_rng(7), input_hw=(8, 8))
    xb = _separated(rng, (2, 1, 8, 8))
    yb = np.array([0, 1])
    weights, alphas = net.params(), net.arch_params()
    targets = [weights[0], weights[-1]] + list(alphas)
    for k, target in enumerate(targets):

        def build_loss(net=net, xb=xb, yb=yb):
            return cross_entropy(net.forward_logits(Tensor(xb)), yb)

        if not _grad_matches(build_loss, target, weights + alphas):
            failures.append(f"supernet:t{k}")
        checked += 1

    elapsed = time.monotonic() - t0
    ok = not failures and checked >= 20 and elapsed < 300.0
    detail = f"{checked} tensors, {elapsed:.0f}s"
    if failures:
        detail += ", mismatches: " + ", ".join(failures)
    verdict(1, "backward matches central finite differences", ok, detail)


def test_criterion_02_mixed_edge(verdict):
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)))
    skip = build_cnn_op("skip_connect", 3, 1, rng)
    null = build_cnn_op("none", 3, 1, rng)
    pool = build_cnn_op("avg_pool_3x3", 3, 1, rng)

    even = MixedEdge([skip, null]).forward(x, Tensor(np.zeros(2))).data
    exact_half = np.array_equal(even, 0.5 * x.data)

    hot = MixedEdge([skip, null]).forward(
        x, Tensor(np.array([40.0, -40.0]))).data
    saturated = float(np.max(np.abs(hot - x.data))) < 1e-6

    a = np.array([0.3, -0.5, 0.8])
    w = np.exp(a - a.max())
    w = w / w.sum()
    parts = [skip(x).data, null(x).data, pool(x).data]
    want = w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2]
    got = MixedEdge([skip, null, pool]).forward(x, Tensor(a)).data
    mixed = float(np.max(np.abs(got - want))) < 1e-12

    verdict(2, "mixed edge is the softmax convex combination",
            exact_half and saturated and mixed,
            f"half={exact_half} sat={saturated} mix={mixed}")


def test_criterion_03_cell_topology(verdict):
    rng = np.random.default_rng(3)
    # b intermediates, 2 inputs: node j gets 2+j edges, summed by hand.
    counts_ok = [num_edges(b) for b in range(1, 7)] == [2, 5, 9, 14, 20, 27]
    pos_ok = (set(reduction_positions(3)) == {1, 2}
              and set(reduction_positions(6)) == {2, 4}
              and set(reduction_positions(1)) == {0})

    scope = tuple(CNN_OPS)
    ins = [Tensor(rng.normal(size=(2, 4, 8, 8))) for _ in range(2)]
    alphas = Tensor(rng.normal(scale=0.01, size=(num_edges(2), len(scope))))
    red = Cell("cnn", scope, 4, 2, True, rng).forward(ins, alphas)
    ins = [Tensor(rng.normal(size=(2, 4, 8, 8))) for _ in range(2)]
    norm = Cell("cnn", scope, 4, 2, False, rng).forward(ins, alphas)
    shape_ok = red.shape == (2, 8, 4, 4) and norm.shape == (2, 8, 8, 8)

    small = ("max_pool_3x3", "skip_connect", "none")
    single = Cell("cnn", small, 4, 3, False, rng, num_inputs=1)
    single_ok = (len(single.edges) == 6
                 and sum(len(e.ops) for e in single.edges) == 18)

    verdict(3, "cell edge counts, reduction placement, spatial halving",
            counts_ok and pos_ok and shape_ok and single_ok,
            f"counts={counts_ok} pos={pos_ok} shapes={shape_ok} "
            f"single_input={single_ok}")


def test_criterion_04_discretization(verdict):
    rng = np.random.default_rng(4)
    scope = tuple(CNN_OPS)

    agree = True
    for _ in range(1000):
        row = rng.normal(scale=2.0, size=len(scope))
        got_op, got_w = discretize_edge(row, scope)
        want_op, want_w = _pick(row, scope)
        if got_op != want_op or abs(got_w - want_w) > 1e-12:
            agree = False
            break

    flat = np.zeros(len(scope))
    tie_first = discretize_edge(flat, scope)[0] == CNN_OPS[0]
    hot_none = flat.copy()
    hot_none[scope.index("none")] = 10.0
    none_skipped = discretize_edge(hot_none, scope)[0] == CNN_OPS[0]
    later_tie = np.full(len(scope), -1.0)
    later_tie[[3, 5]] = 2.0
    tie_low = discretize_edge(later_tie, scope)[0] == CNN_OPS[3]

    small = ("max_pool_3x3", "skip_connect", "none")
    table = rng.normal(size=(num_edges(3), len(small)))
    edges = _retain(table, small, 3, False)
    expected = []
    r0 = 0
    for j in (2, 3, 4):
        cand = []
        for i in range(j):
            name, strength = _pick(table[r0 + i], small)
            cand.append((-strength, i, name))
        cand.sort()
        expected.extend({"from_node": i, "to_node": j, "op": name}
                        for _, i, name in cand[:2])
        r0 += j
    expected.sort(key=lambda e: (e["to_node"], e["from_node"]))
    retain_ok = edges == expected
    kept_all = _retain(table, small, 3, True)
    all_ok = (len(kept_all) == num_edges(3)
              and {(e["from_node"], e["to_node"]) for e in kept_all}
              == {(i, j) for j in (2, 3, 4) for i in range(j)})

    cfg = SearchConfig(C=2, N=1, B_cnn=2, B_seqnn=2, channels=4, hidden=8,
                       seq_scope=("rnn_1", "lstm_1"), epochs=1, batch_size=4,
                       dropout=0.0, seed=0)
    net = build_supernet(cfg, np.random.default_rng(40), input_hw=(16, 16))
    for kind in net.alpha_tables():
        live = net.alpha(kind)
        live.data[:] = rng.normal(size=live.data.shape)
    g = extract_genome(net)
    text = serialize(g)
    round_trip = serialize(deserialize(text)) == text

    verdict(4, "discretization, top-2 retention, genome round-trip",
            agree and tie_first and none_skipped and tie_low and retain_ok
            and all_ok and round_trip,
            f"argmax={agree} ties={tie_first and tie_low} "
            f"none={none_skipped} retain={retain_ok} all={all_ok} "
            f"roundtrip={round_trip}")


def test_criterion_05_alternation_isolation(verdict):
    ds = synth_dataset(5, 2, dims=(16, 16), noise=0.1, seed=5)
    cfg = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=1, channels=4, hidden=8,
                       seq_scope=("rnn_1",), epochs=2, batch_size=8,
                       dropout=0.0, seed=5)
    net = build_supernet(cfg, np.random.default_rng(5), input_hw=(16, 16))
    weights, alphas = net.params(), net.arch_params()

    def wbytes():
        return [p.data.tobytes() for p in weights]

    def abytes():
        return [p.data.tobytes() for p in alphas]

    state = {}
    violations = []
    changed = {"alpha": 0, "weight": 0}

    def watch(ev):
        kind = ev["event"]
        if kind == "pre_alpha":
            state["w"], state["a"] = wbytes(), abytes()
        elif kind == "post_alpha":
            if wbytes() != state["w"]:
                violations.append(("alpha", ev["epoch"], ev["step"]))
            if abytes() != state["a"]:
                changed["alpha"] += 1
        elif kind == "pre_weight":
            state["w"], state["a"] = wbytes(), abytes()
        elif kind == "post_weight":
            if abytes() != state["a"]:
                violations.append(("weight", ev["epoch"], ev["step"]))
            if wbytes() != state["w"]:
                changed["weight"] += 1

    split = ds.split(np.arange(len(ds)))
    search(net, split, split, cfg, on_step=watch)
    ok = (not violations and changed["alpha"] > 0 and changed["weight"] > 0)
    verdict(5, "coefficient and weight steps touch only their own group",
            ok, f"violations={len(violations)} "
                f"alpha_steps={changed['alpha']} "
                f"weight_steps={changed['weight']}")


def test_criterion_06_feature_shapes(verdict):
    rng = np.random.default_rng(6)
    clip = 0.1 * rng.normal(size=CLIP_SAMPLES)
    feat = mfcc(clip)
    pooled = pool_downsample(feat)
    short = pool_downsample(mfcc(pad_or_truncate(np.zeros(5))))
    ok = (feat.shape == (128, 512) and pooled.shape == (128, 128)
          and short.shape == (128, 128)
          and feat.dtype == np.float64 and np.isfinite(pooled).all())
    verdict(6, "feature pipeline yields (128, 512) then (128, 128)", ok,
            f"mfcc={feat.shape} pooled={pooled.shape}")


def test_criterion_07_metrics(verdict):
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(100):
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        recalls = [np.mean(p[y == c] == c) for c in np.unique(y)]
        if abs(ua(y, p) - 100.0 * float(np.mean(recalls))) > 1e-9:
            exact = False
            break
        if abs(wa(y, p) - 100.0 * float(np.mean(p == y))) > 1e-9:
            exact = False
            break
    y = np.array([0, 0, 0, 1])
    p = np.array([0, 0, 0, 0])
    hand = ua(y, p) == 50.0 and wa(y, p) == 75.0
    verdict(7, "recall metrics agree with counting oracles",
            exact and hand, f"random={exact} hand_case={hand}")


def test_criterion_08_speaker_splits(verdict):
    ds = synth_dataset(10, 8, dims=(16, 16), noise=0.1, seed=8)
    folds = speaker_cv_split(ds, 5, seed=8)
    n = len(ds)
    problems = []
    seen_test = []
    for f in folds:
        tr, va, te = f.train_idx, f.val_idx, f.test_idx
        parts = np.concatenate([tr, va, te])
        if sorted(parts.tolist()) != list(range(n)):
            problems.append(f"fold {f.fold}: not a partition")
        held = set(ds.speakers[te].tolist())
        inner = set(ds.speakers[np.concatenate([tr, va])].tolist())
        if held & inner:
            problems.append(f"fold {f.fold}: speaker leak")
        pool = len(tr) + len(va)
        if len(tr) != round(0.7 * pool):
            problems.append(f"fold {f.fold}: train size {len(tr)}")
        for c in range(len(ds.class_names)):
            for s in held | inner:
                if s in held:
                    continue
                stratum = np.sum((ds.labels == c) & (ds.speakers == s))
                got = np.sum((ds.labels[tr] == c) & (ds.speakers[tr] == s))
                lo = int(np.floor(0.7 * stratum))
                hi = int(np.ceil(0.7 * stratum))
                if not lo <= got <= hi:
                    problems.append(
                        f"fold {f.fold}: stratum ({c},{s}) kept {got}")
        seen_test.extend(te.tolist())
    if sorted(seen_test) != list(range(n)):
        problems.append("held-out sets do not cover the corpus")
    verdict(8, "speaker-grouped folds partition without leakage",
            not problems, "; ".join(problems[:3]) or "5 folds clean")


def test_criterion_09_desk_run(verdict, desk_run):
    test_ua = desk_run["test_ua"]
    base_ua = desk_run["baseline_ua"]
    elapsed = desk_run["elapsed"]
    ok = test_ua >= 60.0 and test_ua >= base_ua - 5.0 and elapsed < 900.0
    verdict(9, "searched model holds up on held-out speakers", ok,
            f"ua {test_ua:.1f} vs baseline {base_ua:.1f}, {elapsed:.0f}s")


def test_criterion_10_memorization(verdict):
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(32, 16, 16))
    labels = np.concatenate([np.arange(4), rng.integers(0, 4, size=28)])
    cfg = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=1, channels=8, hidden=16,
                       seq_scope=("lstm_1",), epochs=200, batch_size=32,
                       dropout=0.0, weight_decay=0.0, seed=10)
    net = build_supernet(cfg, np.random.default_rng(10), input_hw=(16, 16))
    for kind in net.alpha_tables():
        scope = (CNN_OPS if kind.startswith("cnn")
                 else augment_scope(cfg.seq_scope))
        target = "sep_conv_3x3" if kind.startswith("cnn") else "lstm_1"
        net.alpha(kind).data[:, scope.index(target)] = 8.0
    model = instantiate(extract_genome(net), cfg, seed=10, input_hw=(16, 16))
    train_derived(model, (feats, labels), cfg)
    _, wa_fit = evaluate(model, (feats, labels))
    verdict(10, "derived net memorizes 32 random-labelled samples",
            wa_fit == 100.0, f"wa {wa_fit:.1f}")


def test_criterion_11_degeneracy_flag(verdict):
    ds = synth_dataset(5, 4, dims=(16, 16), noise=0.05, seed=11)
    cfg = SearchConfig(C=1, N=2, B_cnn=1, B_seqnn=3, channels=4, hidden=8,
                       seq_scope=("rnn_1", "lstm_1"), epochs=3, batch_size=8,
                       dropout=0.0, seed=11)
    net = build_supernet(cfg, np.random.default_rng(11), input_hw=(16, 16))
    split = ds.split(np.arange(len(ds)))
    search(net, split, split, cfg)
    g = extract_genome(net)
    cnn_edges = g.cnn_normal + g.cnn_reduce
    want = {
        "cnn": bool(cnn_edges) and all(e["op"] in PASSIVE for e in cnn_edges),
        "seqnn": bool(g.seqnn) and all(e["op"] in PASSIVE for e in g.seqnn),
    }
    consistent = detect_degenerate(g) == want

    forced = build_supernet(cfg, np.random.default_rng(12),
                            input_hw=(16, 16))
    for kind in forced.alpha_tables():
        scope = (CNN_OPS if kind.startswith("cnn")
                 else augment_scope(cfg.seq_scope))
        live = forced.alpha(kind)
        live.data[:] = 0.0
        live.data[:, scope.index("skip_connect")] = 9.0
    flags = detect_degenerate(extract_genome(forced))
    caught = flags == {"cnn": True, "seqnn": True}

    verdict(11, "degeneracy flag mirrors the retained genome",
            consistent and caught,
            f"search_run={consistent} forced_skip={caught}")


def test_criterion_12_replay(verdict, tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[search]\nC = 1\nN = 1\nB_cnn = 1\nB_seqnn = 1\nchannels = 4\n"
        "hidden = 8\nepochs = 2\nbatch_size = 8\ndropout = 0.0\n"
        "seq_scope = rnn_1\n")
    first = tmp_path / "run"
    redo = tmp_path / "redo"
    first.mkdir()
    redo.mkdir()

    data = str(first / "d.edset")
    genome = str(first / "g.json")
    hist = str(first / "h.csv")
    ckpt = str(first / "m.ckpt")
    thist = str(first / "t.csv")
    codes = [
        main(["gen-data", "--out", data, "--speakers", "5", "--per", "2",
              "--dims", "16x16", "--seed", "9"]),
        main(["search", "--data", data, "--out", genome, "--history", hist,
              "--config", str(ini), "--seed", "9"]),
        main(["derive", "--genome", genome, "--data", data, "--out", ckpt,
              "--history", thist, "--config", str(ini), "--seed", "9",
              "--epochs", "2"]),
        main(["replay", "--manifest", data + ".manifest.json",
              "--out", str(redo / "d.edset")]),
        main(["replay", "--manifest", genome + ".manifest.json",
              "--out", str(redo / "g.json")]),
        main(["replay", "--manifest", ckpt + ".manifest.json",
              "--out", str(redo / "m.ckpt")]),
    ]
    ran = all(c == EXIT_OK for c in codes)

    def same(a, b):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()

    pairs = [(data, redo / "d.edset"), (genome, redo / "g.json"),
             (hist, redo / "h.csv"), (ckpt, redo / "m.ckpt"),
             (thist, redo / "t.csv")]
    identical = ran and all(same(a, b) for a, b in pairs)
    verdict(12, "replayed manifests reproduce artifacts byte for byte",
            ran and identical, f"exit_codes={codes} identical={identical}")


def test_search_quality_improves(desk_run):
    history = desk_run["history"]
    assert history[-1].search_ua - history[0].search_ua >= 20.0
    assert not any(desk_run["degenerate"].values())
