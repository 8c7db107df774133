"""Correctness checks for the benchmark.

Each check compares what the library produced against a value computed
here, apart from the library, or against a property the method must have.
None of them compares against a saved copy of earlier output. A check
returns a `Check` (name, verdict, one-line detail); the worker collects
them and a run is correct only when every check passes.

The reference computations deliberately share no code with the library:
convolution is a loop over kernel taps over plain slices, recurrences
are stepped with separate input and state weights, gradients come from
central (or, at a kink, one-sided) differences, and the retained genome
is recomputed from the raw coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

SEQ_CHECK_ATOL = 1e-10
CONV_CHECK_RTOL = 1e-10
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-8
SCATTER_ATOL = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)

    def line(self) -> str:
        return f"[check] {'PASS' if self.ok else 'FAIL'} {self.name}" + (
            f" ({self.detail})" if self.detail else "")


# ---- convolution ----

def conv_reference(x, w, stride=(1, 1), padding=(0, 0), dilation=(1, 1),
                   groups=1):
    """Cross-correlation by an explicit loop over kernel taps."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    bsz, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    xp = np.zeros((bsz, cin, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    per = cout // groups
    out = np.zeros((bsz, cout, ho, wo))
    for g in range(groups):
        xs = xp[:, g * cg:(g + 1) * cg]
        wg = w[g * per:(g + 1) * per]
        for i in range(kh):
            for j in range(kw):
                r0, c0 = i * dh, j * dw
                patch = xs[:, :, r0:r0 + sh * (ho - 1) + 1:sh,
                           c0:c0 + sw * (wo - 1) + 1:sw]
                # (B, cg, Ho, Wo) x (per, cg) -> (B, per, Ho, Wo)
                out[:, g * per:(g + 1) * per] += np.einsum(
                    "bchw,oc->bohw", patch, wg[:, :, i, j])
    return out


def check_conv(name: str, x, w, out, **conv_args) -> Check:
    ref = conv_reference(x, w, **conv_args)
    out = np.asarray(out)
    if out.shape != ref.shape:
        return Check(f"conv2d {name}", False,
                     f"shape {out.shape} != reference {ref.shape}")
    err = float(np.max(np.abs(out - ref)))
    scale = max(float(np.max(np.abs(ref))), 1.0)
    return Check(f"conv2d {name}", err <= CONV_CHECK_RTOL * scale,
                 f"max abs err {err:.2e}")


# ---- recurrences ----

def rnn_reference(x, w, b):
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    bsz, tlen, feat = x.shape
    wx, wh = w[:feat], w[feat:]
    h = np.zeros((bsz, w.shape[1]))
    out = []
    for t in range(tlen):
        h = np.tanh(x[:, t] @ wx + h @ wh + b)
        out.append(h)
    return np.stack(out, axis=1)


def lstm_reference(x, w, b):
    """Gate order input, forget, cell, output; zero initial state."""
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    bsz, tlen, feat = x.shape
    hid = w.shape[1] // 4
    wx, wh = w[:feat], w[feat:]
    h = np.zeros((bsz, hid))
    c = np.zeros((bsz, hid))
    out = []
    for t in range(tlen):
        z = x[:, t] @ wx + h @ wh + b
        i, f = expit(z[:, :hid]), expit(z[:, hid:2 * hid])
        g, o = np.tanh(z[:, 2 * hid:3 * hid]), expit(z[:, 3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.stack(out, axis=1)


def check_recurrence(kind: str, x, w, b, out) -> Check:
    ref = (lstm_reference if kind == "lstm" else rnn_reference)(x, w, b)
    out = np.asarray(out)
    if out.shape != ref.shape:
        return Check(f"{kind}_seq forward", False,
                     f"shape {out.shape} != reference {ref.shape}")
    err = float(np.max(np.abs(out - ref)))
    return Check(f"{kind}_seq forward", err <= SEQ_CHECK_ATOL,
                 f"max abs err {err:.2e}")


# ---- gradients ----

def differences(loss_of, array: np.ndarray, index, eps: float):
    """(central, forward, backward) difference quotients of the loss in
    array[index], perturbing the entry in place and restoring it;
    loss_of() reads the array through whatever holds it."""
    orig = array[index]
    mid = loss_of()
    array[index] = orig + eps
    up = loss_of()
    array[index] = orig - eps
    down = loss_of()
    array[index] = orig
    return (up - down) / (2.0 * eps), (up - mid) / eps, (mid - down) / eps


def check_gradients(group: str, engine, diffs) -> Check:
    """Each engine entry must match its central difference, or else one of
    its one-sided differences. The second case is a kink at the point
    itself: ReLU outputs of exactly zero tie in a max-pool window, a
    perturbation breaks the tie on one side only, and the engine returns
    that side's slope, a valid one-sided derivative. The central
    difference is then the mean of the two sides and no reference."""
    engine = np.asarray(engine, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64).reshape(len(engine), 3)

    def err_over_bound(numeric):
        err = np.abs(engine - numeric)
        return err - (GRAD_RTOL * np.maximum(np.abs(engine), np.abs(numeric))
                      + GRAD_ATOL), err

    central, central_err = err_over_bound(diffs[:, 0])
    sided = np.minimum(err_over_bound(diffs[:, 1])[0],
                       err_over_bound(diffs[:, 2])[0])
    ok = (central <= 0) | (sided <= 0)
    kinks = int(np.sum((central > 0) & (sided <= 0)))
    worst = int(np.argmax(np.minimum(central, sided)))
    return Check(f"{group} gradients vs finite differences",
                 bool(np.all(ok)),
                 f"{len(engine)} entries, {kinks} at a kink; worst central "
                 f"err {central_err[worst]:.2e} at |g|={abs(engine[worst]):.2e}")


# ---- bilevel isolation ----

def check_isolation(events) -> Check:
    """events: (event name, alpha digest, weight digest) in call order, as
    recorded by the search's on_step hook. A coefficient step may change
    only the coefficients, a weight step only the weights, and each step
    must change its own group."""
    before = {}
    bad, alpha_moved, weight_moved, steps = [], 0, 0, 0
    for name, alpha, weight in events:
        if name in ("pre_alpha", "pre_weight"):
            before[name[4:]] = (alpha, weight)
            continue
        a0, w0 = before.pop(name[5:])
        steps += 1
        if name == "post_alpha":
            if weight != w0:
                bad.append(f"weights moved in coefficient step {steps}")
            alpha_moved += alpha != a0
        else:
            if alpha != a0:
                bad.append(f"coefficients moved in weight step {steps}")
            weight_moved += weight != w0
    ok = not bad and steps > 0 and alpha_moved > 0 and weight_moved > 0
    detail = (bad[0] if bad else
              f"{steps} steps, {alpha_moved} coefficient and {weight_moved} "
              f"weight updates")
    return Check("bilevel group isolation", ok, detail)


# ---- genome ----

def retained_edges(table, op_names, b: int) -> list[dict]:
    """Two strongest edges per intermediate node, where an edge's strength
    is its best non-"none" softmax weight. Ties go to the lower op index
    within an edge and to the lower source node across edges."""
    table = np.asarray(table, dtype=np.float64)
    rows, r = {}, 0
    for j in range(2, 2 + b):
        for i in range(j):
            rows[(i, j)] = r
            r += 1
    keep = [k for k, n in enumerate(op_names) if n != "none"]
    picked = []
    for j in range(2, 2 + b):
        cands = []
        for i in range(j):
            row = table[rows[(i, j)]]
            p = np.exp(row - row.max())
            p /= p.sum()
            best = max(keep, key=lambda k: (p[k], -k))
            cands.append((p[best], -i, op_names[best]))
        cands.sort(reverse=True)
        picked += [(-neg_i, j, op) for _, neg_i, op in cands[:2]]
    picked.sort(key=lambda e: (e[1], e[0]))
    return [{"from_node": i, "to_node": j, "op": op} for i, j, op in picked]


def check_genome(genome, tables: dict, cnn_ops, seq_scope, b_cnn: int,
                 b_seq: int) -> Check:
    want = {"cnn_normal": [], "cnn_reduce": [], "seqnn": []}
    for key in ("cnn_normal", "cnn_reduce"):
        if key in tables:
            want[key] = retained_edges(tables[key], cnn_ops, b_cnn)
    if "seqnn" in tables:
        want["seqnn"] = retained_edges(tables["seqnn"], seq_scope, b_seq)
    got = genome.components()
    diff = [k for k in want if got[k] != want[k]]
    return Check("retained genome matches coefficient tables", not diff,
                 f"differs in {diff}" if diff else
                 f"{sum(len(v) for v in want.values())} edges")


def check_roundtrip(genome, serialize, deserialize) -> Check:
    text = serialize(genome)
    back = deserialize(text)
    ok = back == genome and serialize(back) == text
    return Check("genome serialize/deserialize round trip", ok)


# ---- training and metrics ----

def check_loss_falls(losses) -> Check:
    losses = [float(v) for v in losses]
    ok = len(losses) >= 2 and losses[-1] < losses[0]
    return Check("training loss falls", ok,
                 f"{losses[0]:.4f} -> {losses[-1]:.4f}" if losses else "empty")


def recall_and_accuracy(labels, logits) -> tuple[float, float]:
    labels = np.asarray(labels)
    preds = np.asarray(logits).argmax(axis=1)
    recalls = [np.count_nonzero(preds[labels == c] == c) /
               np.count_nonzero(labels == c) for c in sorted(set(labels))]
    return (100.0 * sum(recalls) / len(recalls),
            100.0 * np.count_nonzero(preds == labels) / len(labels))


def check_metrics(ua: float, wa: float, labels, logits) -> Check:
    ref_ua, ref_wa = recall_and_accuracy(labels, logits)
    ok = abs(ua - ref_ua) <= 1e-9 and abs(wa - ref_wa) <= 1e-9
    return Check("evaluate UA/WA match per-class recall and accuracy", ok,
                 f"UA {ua:.4f} vs {ref_ua:.4f}, WA {wa:.4f} vs {ref_wa:.4f}")


def check_same_logits(before, after) -> Check:
    before, after = np.asarray(before), np.asarray(after)
    ok = before.shape == after.shape and before.tobytes() == after.tobytes()
    return Check("checkpoint save/load gives bit-identical logits", ok)


# ---- study ----

ROW_FIELDS = ("scope", "fold", "ua", "wa", "params", "degenerate_cnn",
              "degenerate_seqnn", "seed")


def check_rerun(pooled, rerun, serialize) -> Check:
    diff = [f for f in ROW_FIELDS if getattr(pooled, f) != getattr(rerun, f)]
    if (pooled.genome is None) != (rerun.genome is None) or (
            pooled.genome is not None and
            serialize(pooled.genome) != serialize(rerun.genome)):
        diff.append("genome")
    return Check("in-process run_fold reproduces its pooled row", not diff,
                 f"differs in {diff}" if diff else
                 f"{pooled.scope} fold {pooled.fold}")


def check_scatter(results, scatter) -> Check:
    bad = []
    for row in scatter:
        done = [r for r in results if r.scope == row["scope"]
                and r.ua is not None]
        if not done:
            bad.append(row["scope"])
            continue
        uas = [r.ua for r in done]
        mean = sum(uas) / len(uas)
        std = (sum((u - mean) ** 2 for u in uas) / len(uas)) ** 0.5
        params = sum(r.params for r in done) / len(done)
        got = (row["mean_ua"], row["std_ua"], row["params"])
        if any(v is None or abs(v - ref) > SCATTER_ATOL
               for v, ref in zip(got, (mean, std, params))):
            bad.append(row["scope"])
    return Check("scatter means and deviations match the rows", not bad,
                 f"differs for {bad}" if bad else f"{len(scatter)} scopes")
