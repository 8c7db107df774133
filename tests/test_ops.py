"""Catalog tests: parameter counts hand-summed from the block definitions,
shape contracts for both strides, and gradient spot checks against the
finite-difference oracle (the exhaustive per-kind sweep lives in the
acceptance suite)."""

import numpy as np
import pytest

from emodarts import ContractViolation, Tensor, finite_diff_grad
from emodarts.ops import (CNN_OPS, SEQNN_OPS, AdditiveAttention, BatchNorm2d,
                          Linear, build_cnn_op, build_seq_op, count_params,
                          lstm_seq, rnn_seq)

RNG = lambda s: np.random.default_rng(s)


def test_catalog_orders_are_pinned():
    assert CNN_OPS == [
        "max_pool_3x3", "avg_pool_3x3", "dil_conv_3x3", "dil_conv_5x5",
        "sep_conv_3x3", "sep_conv_5x5", "conv_7x1_1x7", "skip_connect", "none"]
    assert SEQNN_OPS == [
        "lstm_1", "lstm_2", "lstm_3", "lstm_4", "lstm_att_1", "lstm_att_2",
        "rnn_1", "rnn_2", "rnn_3", "rnn_4", "rnn_att_1", "rnn_att_2"]


# ---- parameter counts ----

def test_rnn_1_param_count_f8_h16():
    op = build_seq_op("rnn_1", 8, 16, RNG(0))
    assert count_params(op) == (8 + 16) * 16 + 16 == 400


def test_lstm_1_param_count_f8_h16():
    op = build_seq_op("lstm_1", 8, 16, RNG(0))
    assert count_params(op) == 4 * ((8 + 16) * 16 + 16) == 1600


def test_attention_param_count_h16():
    att = AdditiveAttention(16, RNG(0))
    assert count_params(att) == 16 * 16 + 2 * 16 == 288


def test_stacked_and_attention_counts_compose():
    assert count_params(build_seq_op("rnn_att_1", 8, 16, RNG(0))) == 400 + 288
    # second LSTM layer sees hidden-width input
    assert count_params(build_seq_op("lstm_att_2", 8, 16, RNG(0))) == \
        1600 + 4 * ((16 + 16) * 16 + 16) + 288


def test_sep_conv_3x3_param_count_c16():
    op = build_cnn_op("sep_conv_3x3", 16, 1, RNG(0))
    assert count_params(op) == 2 * (16 * 9 + 16 * 16) == 800


@pytest.mark.parametrize("name,count", [
    ("max_pool_3x3", 0), ("avg_pool_3x3", 0), ("skip_connect", 0),
    ("none", 0), ("dil_conv_3x3", 9 * 16 * 16), ("dil_conv_5x5", 25 * 16 * 16),
    ("sep_conv_5x5", 2 * (16 * 25 + 16 * 16)), ("conv_7x1_1x7", 14 * 16 * 16),
])
def test_cnn_param_counts_c16(name, count):
    assert count_params(build_cnn_op(name, 16, 1, RNG(0))) == count


def test_affine_norms_add_two_scalars_per_channel():
    plain = count_params(build_cnn_op("dil_conv_3x3", 16, 1, RNG(0), affine=False))
    affine = count_params(build_cnn_op("dil_conv_3x3", 16, 1, RNG(0), affine=True))
    assert affine - plain == 2 * 16


# ---- shape contracts ----

@pytest.mark.parametrize("name", CNN_OPS)
@pytest.mark.parametrize("stride", [1, 2])
def test_cnn_ops_shape_contract(name, stride):
    op = build_cnn_op(name, 8, stride, RNG(1))
    x = Tensor(RNG(2).normal(size=(2, 8, 12, 12)))
    out = op(x)
    want = 12 if stride == 1 else 6
    assert out.shape == (2, 8, want, want)


@pytest.mark.parametrize("name", SEQNN_OPS + ["skip_connect", "none"])
def test_seq_ops_shape_contract(name):
    op = build_seq_op(name, 10, 10, RNG(3))
    out = op(Tensor(RNG(4).normal(size=(2, 5, 10))))
    assert out.shape == (2, 5, 10)


def test_seq_op_projects_input_width():
    op = build_seq_op("lstm_2", 24, 10, RNG(3))
    out = op(Tensor(RNG(4).normal(size=(2, 5, 24))))
    assert out.shape == (2, 5, 10)


def test_unknown_ops_are_rejected():
    with pytest.raises(ContractViolation):
        build_cnn_op("conv_9x9", 8, 1, RNG(0))
    with pytest.raises(ContractViolation):
        build_seq_op("gru_1", 8, 8, RNG(0))
    with pytest.raises(ContractViolation):
        build_seq_op("lstm_att_x", 8, 8, RNG(0))
    # well-formed names outside the catalog are not ops either
    for name in ("lstm_5", "rnn_att_3"):
        with pytest.raises(ContractViolation):
            build_seq_op(name, 8, 8, RNG(0))


def test_skip_connect_reduction_subsamples_exactly():
    op = build_cnn_op("skip_connect", 4, 2, RNG(0))
    x = Tensor(RNG(5).normal(size=(1, 4, 8, 8)))
    np.testing.assert_array_equal(op(x).data, x.data[:, :, ::2, ::2])


def test_none_op_blocks_gradients():
    x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    out = build_cnn_op("none", 2, 1, RNG(0))(x)
    assert not out.requires_grad
    np.testing.assert_array_equal(out.data, 0.0)
    mixed = (out + x * 2.0).sum()
    mixed.backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 4, 4), 2.0))


# ---- gradient spot checks ----

def _gradcheck_input(op, x0, rtol=1e-3, atol=1e-5):
    x = Tensor(x0, requires_grad=True)
    op(x).sum().backward()

    def f(v):
        return float(op(Tensor(v)).data.sum())

    fd = finite_diff_grad(f, x0.copy(), eps=1e-4)
    np.testing.assert_allclose(x.grad, fd, rtol=rtol, atol=atol)


def test_rnn_seq_gradients_match_oracle_all_inputs():
    rng = RNG(6)
    x0 = rng.normal(size=(2, 5, 3))
    w0 = rng.normal(size=(3 + 4, 4)) * 0.4
    b0 = rng.normal(size=(4,)) * 0.1

    def make(xv, wv, bv):
        xs = Tensor(xv, requires_grad=True)
        ws = Tensor(wv, requires_grad=True)
        bs = Tensor(bv, requires_grad=True)
        out = rnn_seq(xs, ws, bs)
        return xs, ws, bs, (out * out).sum()

    xs, ws, bs, loss = make(x0, w0, b0)
    loss.backward()
    for tensor, arr, rebuild in [
            (xs, x0, lambda v: make(v, w0, b0)[3]),
            (ws, w0, lambda v: make(x0, v, b0)[3]),
            (bs, b0, lambda v: make(x0, w0, v)[3])]:
        fd = finite_diff_grad(lambda v: rebuild(v).item(), arr.copy(), eps=1e-4)
        np.testing.assert_allclose(tensor.grad, fd, rtol=1e-3, atol=1e-5)


def test_lstm_seq_gradients_match_oracle_all_inputs():
    rng = RNG(7)
    x0 = rng.normal(size=(2, 6, 3))
    w0 = rng.normal(size=(3 + 4, 16)) * 0.4
    b0 = rng.normal(size=(16,)) * 0.1

    def make(xv, wv, bv):
        xs = Tensor(xv, requires_grad=True)
        ws = Tensor(wv, requires_grad=True)
        bs = Tensor(bv, requires_grad=True)
        return xs, ws, bs, (lstm_seq(xs, ws, bs) * 2.0).sum()

    xs, ws, bs, loss = make(x0, w0, b0)
    loss.backward()
    for tensor, arr, rebuild in [
            (xs, x0, lambda v: make(v, w0, b0)[3]),
            (ws, w0, lambda v: make(x0, v, b0)[3]),
            (bs, b0, lambda v: make(x0, w0, v)[3])]:
        fd = finite_diff_grad(lambda v: rebuild(v).item(), arr.copy(), eps=1e-4)
        np.testing.assert_allclose(tensor.grad, fd, rtol=1e-3, atol=1e-5)


def test_attention_op_gradient_and_weights_sum_to_one():
    rng = RNG(8)
    att = AdditiveAttention(6, rng)
    x0 = rng.normal(size=(2, 5, 6))
    scores = att.scores(Tensor(x0)).data
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=1e-12)
    _gradcheck_input(att, x0)


@pytest.mark.parametrize("name", ["dil_conv_3x3", "sep_conv_3x3", "conv_7x1_1x7"])
def test_conv_ops_gradients_match_oracle(name):
    rng = RNG(hash(name) % 2**32)
    op = build_cnn_op(name, 4, 1, rng)
    x0 = rng.normal(size=(2, 4, 6, 6))
    x0 += 0.03 * np.sign(x0)   # stay clear of the leading ReLU kink
    _gradcheck_input(op, x0)


def test_lstm_op_init_is_seed_deterministic():
    a = build_seq_op("lstm_1", 8, 16, RNG(9))
    b = build_seq_op("lstm_1", 8, 16, RNG(9))
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_batch_norm_module_tracks_running_stats():
    norm = BatchNorm2d(3, affine=False)
    rng = RNG(10)
    x = Tensor(rng.normal(loc=2.0, size=(8, 3, 4, 4)))
    for _ in range(200):
        norm(x)
    norm.set_training(False)
    y = norm(x)
    # after convergence of the running stats, eval output is normalized too
    assert abs(float(y.data.mean())) < 1e-2
    assert abs(float(y.data.var()) - 1.0) < 5e-2


def test_linear_applies_bias():
    lin = Linear(3, 2, RNG(11))
    x = Tensor(np.zeros((4, 3)))
    np.testing.assert_allclose(lin(x).data, np.broadcast_to(lin.bias.data, (4, 2)))


# ---- the lockstep recurrence kernel ----

def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def _reference_recurrence(cell, x, w, b):
    """Per candidate, per step: the textbook recurrence in plain numpy."""
    k, rows, cols = w.shape
    hid = cols // (4 if cell == "lstm" else 1)
    feat = rows - hid
    outs = []
    for j in range(k):
        xj = x if x.ndim == 3 else x[j]
        h = np.zeros((xj.shape[0], hid))
        c = np.zeros_like(h)
        steps = []
        for t in range(xj.shape[1]):
            z = xj[:, t] @ w[j, :feat] + h @ w[j, feat:] + b[j]
            if cell == "lstm":
                i, f = _sig(z[:, :hid]), _sig(z[:, hid:2 * hid])
                g, o = np.tanh(z[:, 2 * hid:3 * hid]), _sig(z[:, 3 * hid:])
                c = f * c + i * g
                h = o * np.tanh(c)
            else:
                h = np.tanh(z)
            steps.append(h)
        outs.append(np.stack(steps, axis=1))
    return np.stack(outs)


KERNELS = {"lstm": (lstm_seq, 4), "rnn": (rnn_seq, 1)}
LOCKSTEP_CASES = [(cell, k, shared) for cell in KERNELS for k in (1, 2, 3)
                  for shared in (True, False)]


def _lockstep_inputs(cell, k, shared, seed, bsz=2, tlen=4, feat=3, hid=2):
    rng = RNG(seed)
    gates = KERNELS[cell][1]
    x = rng.normal(size=(bsz, tlen, feat) if shared else (k, bsz, tlen, feat))
    w = rng.normal(size=(k, feat + hid, gates * hid)) * 0.5
    b = rng.normal(size=(k, gates * hid)) * 0.2
    return x, w, b


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_matches_the_per_step_reference(cell, k, shared):
    x, w, b = _lockstep_inputs(cell, k, shared, seed=20 + k,
                               bsz=3, tlen=7, feat=5, hid=4)
    out = KERNELS[cell][0](Tensor(x), Tensor(w), Tensor(b)).data
    ref = _reference_recurrence(cell, x, w, b)
    assert out.shape == ref.shape == (k, 3, 7, 4)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_gradients_match_oracle(cell, k, shared):
    fn = KERNELS[cell][0]
    x0, w0, b0 = _lockstep_inputs(cell, k, shared, seed=30 + k)
    g = RNG(40 + k).normal(size=(k, 2, 4, 2))

    def loss(xv, wv, bv, grad=False):
        ts = [Tensor(v, requires_grad=grad) for v in (xv, wv, bv)]
        out = (fn(*ts) * Tensor(g)).sum()
        return ts, out

    ts, out = loss(x0, w0, b0, grad=True)
    out.backward()
    for pos, arr in enumerate((x0, w0, b0)):
        def f(v, pos=pos):
            args = [v if i == pos else a for i, a in enumerate((x0, w0, b0))]
            return loss(*args)[1].item()
        fd = finite_diff_grad(f, arr.copy(), eps=1e-5)
        np.testing.assert_allclose(ts[pos].grad, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_skips_gradients_of_frozen_weights(cell, k, shared):
    fn = KERNELS[cell][0]
    x, w, b = _lockstep_inputs(cell, k, shared, seed=50 + k)
    g = RNG(60 + k).normal(size=(k, 2, 4, 2))
    live = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    (fn(*live) * Tensor(g)).sum().backward()
    xt = Tensor(x, requires_grad=True)
    wt, bt = Tensor(w), Tensor(b)
    out = fn(xt, wt, bt)
    dx, dw, db = out._vjp(g)
    assert dw is None and db is None
    (out * Tensor(g)).sum().backward()
    assert wt.grad is None and bt.grad is None
    np.testing.assert_array_equal(xt.grad, live[0].grad)
    np.testing.assert_array_equal(dx, live[0].grad)


def test_single_layer_call_is_the_k1_case():
    x, w, b = _lockstep_inputs("lstm", 1, True, seed=70)
    single = lstm_seq(Tensor(x), Tensor(w[0]), Tensor(b[0])).data
    np.testing.assert_array_equal(
        single, lstm_seq(Tensor(x), Tensor(w), Tensor(b)).data[0])


def test_lockstep_kernel_rejects_mismatched_shapes():
    x, w, b = _lockstep_inputs("rnn", 2, False, seed=71)
    bad = [(x[:1], w, b),          # one input for two layers
           (x, w, b[:1]),          # one bias for two layers
           (x, w[:, 1:], b),       # rows != F + H
           (x, w[0], b[0])]        # one layer given per-layer inputs
    for args in bad:
        with pytest.raises(ContractViolation):
            rnn_seq(*map(Tensor, args))
    with pytest.raises(ContractViolation):   # not four gate blocks
        lstm_seq(Tensor(x), Tensor(w), Tensor(b))


def test_full_scope_edge_in_lockstep_matches_the_per_candidate_sum():
    from emodarts.cell import MixedEdge, augment_scope
    from emodarts.tensor import _mix, softmax

    rng = RNG(72)
    scope = augment_scope(SEQNN_OPS)
    edge = MixedEdge([build_seq_op(n, 6, 6, rng) for n in scope])
    x0 = rng.normal(size=(3, 5, 6))
    a0 = rng.normal(size=len(scope))
    g = rng.normal(size=(3, 5, 6))

    def run(forward):
        for p in edge.params():
            p.grad = None
        x = Tensor(x0, requires_grad=True)
        alpha = Tensor(a0, requires_grad=True)
        out = forward(x, alpha)
        (out * Tensor(g)).sum().backward()
        return [out.data, x.grad, alpha.grad] + [p.grad for p in edge.params()]

    lockstep = run(edge)
    apart = run(lambda x, alpha: _mix(softmax(alpha, axis=0),
                                      [op(x) for op in edge.ops]))
    assert len(lockstep) == 3 + len(edge.params())
    for got, want in zip(lockstep, apart):
        assert got is not None and want is not None
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
