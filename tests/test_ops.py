"""Catalog tests: parameter counts hand-summed from the block definitions,
shape contracts for both strides, and gradient spot checks against the
finite-difference oracle (the exhaustive per-kind sweep lives in the
acceptance suite)."""

import numpy as np
import pytest

from emodarts import ContractViolation, Tensor, finite_diff_grad
from emodarts.ops import (CNN_OPS, SEQNN_OPS, AdditiveAttention, BatchNorm2d,
                          Linear, build_cnn_op, build_seq_op, count_params,
                          _lstm_loop, _recurrence, _rnn_loop, lstm_seq,
                          rnn_seq)

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


def _eval_norm(affine, seed=12):
    """An eval-mode norm with non-trivial running statistics and affine."""
    rng = RNG(seed)
    norm = BatchNorm2d(3, affine=affine)
    norm.running_mean[...] = rng.normal(size=(1, 3, 1, 1))
    norm.running_var[...] = rng.uniform(0.5, 2.0, size=(1, 3, 1, 1))
    if affine:
        norm.gamma.data[...] = rng.normal(size=(1, 3, 1, 1))
        norm.beta.data[...] = rng.normal(size=(1, 3, 1, 1))
    norm.set_training(False)
    return norm, rng.normal(size=(4, 3, 5, 5))


@pytest.mark.parametrize("affine", [False, True])
def test_batch_norm_eval_matches_the_textbook_formula(affine):
    norm, x = _eval_norm(affine)
    want = ((x - norm.running_mean)
            / np.sqrt(norm.running_var + BatchNorm2d.eps))
    if affine:
        want = want * norm.gamma.data + norm.beta.data
    np.testing.assert_allclose(norm(Tensor(x)).data, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("affine", [False, True])
def test_batch_norm_eval_gradients_match_oracle(affine):
    norm, x0 = _eval_norm(affine, seed=13)
    g = RNG(14).normal(size=x0.shape)
    x = Tensor(x0.copy(), requires_grad=True)
    (norm(x) * Tensor(g)).sum().backward()

    def f(_):
        return float((norm(Tensor(x.data)).data * g).sum())

    # finite_diff_grad perturbs each array in place, where norm reads it
    pairs = [(x.grad, x.data)]
    if affine:
        pairs += [(norm.gamma.grad, norm.gamma.data),
                  (norm.beta.grad, norm.beta.data)]
    for grad, arr in pairs:
        fd = finite_diff_grad(f, arr, eps=1e-5)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


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


def _lockstep(cell, x, w, b, grad=False):
    """The kernel over per-layer tensors cut from (K, ...) arrays w and b:
    (x, weights, biases) as Tensors, and the output."""
    xt = Tensor(x, requires_grad=grad)
    ws = [Tensor(v, requires_grad=grad) for v in w]
    bs = [Tensor(v, requires_grad=grad) for v in b]
    return (xt, ws, bs), _recurrence(cell, xt, ws, bs)


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_matches_the_per_step_reference(cell, k, shared):
    x, w, b = _lockstep_inputs(cell, k, shared, seed=20 + k,
                               bsz=3, tlen=7, feat=5, hid=4)
    out = _lockstep(cell, x, w, b)[1].data
    ref = _reference_recurrence(cell, x, w, b)
    assert out.shape == ref.shape == (k, 3, 7, 4)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_gradients_match_oracle(cell, k, shared):
    x0, w0, b0 = _lockstep_inputs(cell, k, shared, seed=30 + k)
    g = RNG(40 + k).normal(size=(k, 2, 4, 2))

    def loss(xv, wv, bv, grad=False):
        ts, out = _lockstep(cell, xv, wv, bv, grad)
        return ts, (out * Tensor(g)).sum()

    (xt, ws, bs), out = loss(x0, w0, b0, grad=True)
    out.backward()
    grads = (xt.grad, np.stack([t.grad for t in ws]),
             np.stack([t.grad for t in bs]))
    for pos, arr in enumerate((x0, w0, b0)):
        def f(v, pos=pos):
            args = [v if i == pos else a for i, a in enumerate((x0, w0, b0))]
            return loss(*args)[1].item()
        fd = finite_diff_grad(f, arr.copy(), eps=1e-5)
        np.testing.assert_allclose(grads[pos], fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("cell,k,shared", LOCKSTEP_CASES)
def test_lockstep_kernel_skips_gradients_of_frozen_weights(cell, k, shared):
    x, w, b = _lockstep_inputs(cell, k, shared, seed=50 + k)
    g = RNG(60 + k).normal(size=(k, 2, 4, 2))
    (live, _, _), out = _lockstep(cell, x, w, b, grad=True)
    (out * Tensor(g)).sum().backward()
    xt = Tensor(x, requires_grad=True)
    ws, bs = [Tensor(v) for v in w], [Tensor(v) for v in b]
    out = _recurrence(cell, xt, ws, bs)
    dx, *frozen = out._vjp(g)
    assert len(frozen) == 2 * k and all(d is None for d in frozen)
    (out * Tensor(g)).sum().backward()
    assert all(t.grad is None for t in ws + bs)
    np.testing.assert_array_equal(xt.grad, live.grad)
    np.testing.assert_array_equal(dx, live.grad)



@pytest.mark.parametrize("cell", list(KERNELS))
@pytest.mark.parametrize("k", [1, 3])
def test_one_step_recurrence_gradients_match_oracle(cell, k):
    x0, w0, b0 = _lockstep_inputs(cell, k, False, seed=75 + k, tlen=1)
    g = RNG(77 + k).normal(size=(k, 2, 1, 2))

    def loss(xv, wv, bv, grad=False):
        ts, out = _lockstep(cell, xv, wv, bv, grad)
        return ts, (out * Tensor(g)).sum()

    (xt, ws, bs), out = loss(x0, w0, b0, grad=True)
    out.backward()
    grads = (xt.grad, np.stack([t.grad for t in ws]),
             np.stack([t.grad for t in bs]))
    for pos, arr in enumerate((x0, w0, b0)):
        def f(v, pos=pos):
            args = [v if i == pos else a for i, a in enumerate((x0, w0, b0))]
            return loss(*args)[1].item()
        np.testing.assert_allclose(grads[pos],
                                   finite_diff_grad(f, arr.copy(), eps=1e-5),
                                   rtol=1e-6, atol=1e-8)


def _per_step_loop(cell, xz, wh, g):
    """(hs, dz) of a time loop that computes every value inside the loop,
    one step at a time: forward keeps each cell state as it makes it, and
    backward takes tanh(c_t), 1 - tanh²(c_t) and the gate slopes at each
    step. xz is the projection (K, T, B, G*H), wh the state weights
    (K, H, G*H) and g the output's gradient (K, B, T, H)."""
    k, tlen, bsz, cols = xz.shape
    hid = g.shape[-1]
    whT = wh.transpose(0, 2, 1)
    hs = np.empty((k, bsz, tlen, hid))
    dz = np.empty(xz.shape)
    dh = np.zeros((k, bsz, hid))
    if cell == "rnn":
        for t in range(tlen):
            z = xz[:, t] + hs[:, :, t - 1] @ wh if t else xz[:, 0]
            np.tanh(z, out=hs[:, :, t])
        for t in range(tlen - 1, -1, -1):
            h = hs[:, :, t]
            dh = np.multiply(1.0 - h * h, g[:, :, t] + dh, out=dz[:, t]) @ whT
        return hs, dz
    cell = slice(2 * hid, 3 * hid)
    acts = np.empty((tlen, k, bsz, cols))
    cs = np.empty((tlen, k, bsz, hid))
    c = np.zeros((k, bsz, hid))
    for t in range(tlen):
        a = np.add(xz[:, t], hs[:, :, t - 1] @ wh if t else 0.0, out=acts[t])
        gc = np.tanh(a[..., cell])
        a[...] = 1.0 / (1.0 + np.exp(-a))
        a[..., cell] = gc
        c = cs[t] = a[..., hid:2 * hid] * c + a[..., :hid] * gc
        hs[:, :, t] = a[..., 3 * hid:] * np.tanh(c)
    d = np.empty((k, bsz, cols))
    dc = np.zeros((k, bsz, hid))
    for t in range(tlen - 1, -1, -1):
        a, tc = acts[t], np.tanh(cs[t])
        gi, gf, gc, go = (a[..., n * hid:(n + 1) * hid] for n in range(4))
        dht = g[:, :, t] + dh
        dc += dht * go * (1.0 - tc * tc)
        np.multiply(dc, gc, out=d[..., :hid])
        np.multiply(dc, cs[t - 1] if t else 0.0, out=d[..., hid:2 * hid])
        np.multiply(dc, gi, out=d[..., cell])
        np.multiply(dht, tc, out=d[..., 3 * hid:])
        slope = a * (1.0 - a)
        slope[..., cell] = 1.0 - gc * gc
        dh = np.multiply(d, slope, out=dz[:, t]) @ whT
        dc *= gf
    return hs, dz


LOOPS = {"lstm": _lstm_loop, "rnn": _rnn_loop}


def _loop_inputs(cell, k, tlen, seed, bsz=3, hid=4):
    rng = RNG(seed)
    cols = KERNELS[cell][1] * hid
    return (rng.normal(size=(k, tlen, bsz, cols)),
            rng.normal(size=(k, hid, cols)) * 0.5,
            rng.normal(size=(k, bsz, tlen, hid)))


@pytest.mark.parametrize("tlen", [1, 2, 7])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("cell", list(LOOPS))
def test_time_loop_is_bit_identical_to_the_per_step_loop(cell, k, tlen):
    xz, wh, g = _loop_inputs(cell, k, tlen, seed=80 + 10 * k + tlen)
    hs, back = LOOPS[cell](xz, wh)
    want_hs, want_dz = _per_step_loop(cell, xz, wh, g)
    assert hs.tobytes() == want_hs.tobytes()
    assert back(g, wh).tobytes() == want_dz.tobytes()


@pytest.mark.parametrize("tlen", [1, 2])
def test_lstm_back_turns_a_negative_zero_first_cell_state_into_zero(tlen):
    # i_0 = sigmoid(-700) ~ 1e-304 times g_0 = tanh(-1e-300) underflows
    # to -0.0; forward's zero state adds f·0.0 and makes c_0 = +0.0, so
    # tanh(c_0) in the output gate's gradient and c_0 in the forget
    # gate's next step must be +0.0 in backward too
    xz, wh, g = _loop_inputs("lstm", 1, tlen, seed=90 + tlen)
    hid = g.shape[-1]
    xz[0, 0, 0, 0], xz[0, 0, 0, 2 * hid] = -700.0, -1e-300
    i0g0 = 1.0 / (1.0 + np.exp(700.0)) * np.tanh(-1e-300)
    assert i0g0 == 0.0 and np.signbit(i0g0)
    hs, back = _lstm_loop(xz, wh)
    want_hs, want_dz = _per_step_loop("lstm", xz, wh, g)
    assert hs.tobytes() == want_hs.tobytes()
    assert back(g, wh).tobytes() == want_dz.tobytes()

def test_single_layer_call_is_the_k1_case():
    x, w, b = _lockstep_inputs("lstm", 1, True, seed=70)
    single = lstm_seq(Tensor(x), Tensor(w[0]), Tensor(b[0])).data
    np.testing.assert_array_equal(
        single, _lockstep("lstm", x, w, b)[1].data[0])


def test_lockstep_kernel_rejects_mismatched_shapes():
    x, w, b = _lockstep_inputs("rnn", 2, False, seed=71)
    layers = [Tensor(v) for v in w]
    biases = [Tensor(v) for v in b]
    bad = [("rnn", x[:1], layers, biases),          # one input for two layers
           ("rnn", x, layers, biases[:1]),          # one bias for two layers
           ("rnn", x, [Tensor(v) for v in w[:, 1:]], biases),  # rows != F+H
           ("rnn", x, [layers[0], Tensor(w[1, 1:])], biases),  # unequal
           ("rnn", x, [], []),                      # no layers
           ("lstm", x, layers, biases),             # fewer than four gates
           ("lstm", x, [Tensor(np.zeros((5, 9)))] * 2,  # 4H + 1 columns,
            [Tensor(np.zeros(9))] * 2)]                 # H = 2 = 5 - F
    for cell, xv, ws, bs in bad:
        with pytest.raises(ContractViolation):
            _recurrence(cell, Tensor(xv), ws, bs)
    for args in [(x, w[0], b[0]),          # one layer given per-layer inputs
                 (x[:1], w[0], b[0]),      # one layer given a layer axis
                 (x[0], w[0, 1:], b[0])]:  # one layer, rows != F + H
        with pytest.raises(ContractViolation):
            rnn_seq(*map(Tensor, args))
    with pytest.raises(ContractViolation):   # one layer, not four gate blocks
        lstm_seq(Tensor(x[0]), Tensor(w[0]), Tensor(b[0]))


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
