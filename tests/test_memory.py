"""What a graph node keeps alive until backward.

Each case builds one op from leaf inputs that need a gradient, holds only
the output Tensor, and reads with tracemalloc the bytes still allocated.
The inputs are allocated before tracing starts, so what is counted is the
output and whatever the op's vector-Jacobian closure holds. A window op
must not keep a padded copy of its input, and a recurrence must keep its
gate values, cell states and output but not tanh(c), a copy of x, a
contiguous copy of lockstep state weights or the stacked lockstep weights:
those are rebuilt from arrays that the graph holds anyway. A none op
allocates no zeros. A conv that feeds a norm is one node that keeps no
pre-norm map and no scaled copy, and a CNN cell rectifies each source
node once. The gradients of the same ops are checked against
finite_diff_grad.
"""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import emodarts.cell
import emodarts.ops
from emodarts import (Cell, Tensor, avg_pool2d, conv2d, finite_diff_grad,
                      max_pool2d)
from emodarts.ops import (CNN_OPS, Conv7x1_1x7, NoneOp, ReLUConvNorm, SepConv,
                          _recurrence, build_seq_op, lstm_seq, rnn_seq,
                          run_candidates)
from emodarts.supernet import Stem
from emodarts.tensor import conv2d_norm, relu

SLACK = 8192      # bytes: Tensor and closure objects, small arrays


def retained(build):
    """(bytes allocated by build() that are still alive, its result)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        if not tracing:
            tracemalloc.stop()


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


WINDOW_OPS = {
    "conv2d": lambda x, w: conv2d(x, w, padding=2, dilation=2),
    "max_pool2d": lambda x, w: max_pool2d(x, 3, stride=1, padding=1),
    "avg_pool2d": lambda x, w: avg_pool2d(x, 3, stride=2, padding=1),
}


@pytest.mark.parametrize("name", list(WINDOW_OPS))
def test_window_op_keeps_no_padded_copy(name):
    rng = np.random.default_rng(3)
    x, w = leaf(rng, 4, 4, 32, 32), leaf(rng, 4, 4, 3, 3)
    kept, out = retained(lambda: WINDOW_OPS[name](x, w))
    padded = x.data.nbytes * (34 * 34) // (32 * 32)   # the least padding
    assert out.requires_grad
    assert kept - out.data.nbytes < SLACK < padded


@pytest.mark.parametrize("name", list(WINDOW_OPS))
def test_window_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(4)
    # separated values, so no max-pool argmax flips under the probe
    x = rng.permutation(2 * 2 * 7 * 7).reshape(2, 2, 7, 7) * 0.01
    w = rng.normal(size=(2, 2, 3, 3))
    op = WINDOW_OPS[name]
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = op(xt, wt)
    proj = rng.normal(size=out.shape)
    (out * Tensor(proj)).sum().backward()
    loss_x = lambda v: float((op(Tensor(v), Tensor(w)).data * proj).sum())
    np.testing.assert_allclose(xt.grad, finite_diff_grad(loss_x, x.copy()),
                               rtol=1e-6, atol=1e-8)
    if name == "conv2d":
        loss_w = lambda v: float((op(Tensor(x), Tensor(v)).data * proj).sum())
        np.testing.assert_allclose(wt.grad, finite_diff_grad(loss_w, w.copy()),
                                   rtol=1e-6, atol=1e-8)


RECURRENCES = {"lstm": (lstm_seq, 4), "rnn": (rnn_seq, 1)}


@pytest.mark.parametrize("layers", [0, 3], ids=["single", "lockstep"])
@pytest.mark.parametrize("cell", list(RECURRENCES))
def test_recurrence_keeps_gates_states_and_output_only(cell, layers):
    op, gates = RECURRENCES[cell]
    bsz, tlen, feat, hid = 4, 16, 32, 32
    rng = np.random.default_rng(5)
    x = leaf(rng, bsz, tlen, feat)
    ws = [leaf(rng, feat + hid, gates * hid) for _ in range(max(layers, 1))]
    bs = [leaf(rng, gates * hid) for _ in ws]
    kept, out = retained(lambda: _recurrence(cell, x, ws, bs) if layers
                         else op(x, ws[0], bs[0]))
    step = bsz * tlen * hid * 8          # one (B, T, H) float64 array
    # per layer the output, and for an LSTM its gate values and cell
    # states; not tanh(c) (another step), not the time-major copy of x
    # (x.nbytes) and not a contiguous copy of lockstep state weights
    want = (1 if cell == "rnn" else 2 + gates) * step * len(ws)
    assert out.requires_grad and x.data.nbytes == step
    assert want <= kept < want + SLACK < want + step


@pytest.mark.parametrize("cell", list(RECURRENCES))
def test_recurrence_gradients_match_finite_differences(cell):
    op, gates = RECURRENCES[cell]
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(2, 5, 3)), 0.5 * rng.normal(size=(7, gates * 4)),
              0.5 * rng.normal(size=gates * 4)]
    proj = rng.normal(size=(2, 5, 4))
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    (op(*leaves) * Tensor(proj)).sum().backward()
    for i, arr in enumerate(arrays):
        def loss(v):
            args = [Tensor(v if j == i else a) for j, a in enumerate(arrays)]
            return float((op(*args).data * proj).sum())
        np.testing.assert_allclose(leaves[i].grad,
                                   finite_diff_grad(loss, arr.copy()),
                                   rtol=1e-6, atol=1e-8)


def test_lockstep_recurrence_keeps_no_stacked_weights():
    bsz, tlen, hid = 4, 16, 32
    rng = np.random.default_rng(7)
    ops = [build_seq_op(name, hid, hid, rng)
           for name in ("lstm_1", "lstm_1", "lstm_1")]
    x = leaf(rng, bsz, tlen, hid)
    kept, outs = retained(lambda: run_candidates(ops, x))
    step = bsz * tlen * hid * 8
    stacked = sum(p.data.nbytes for op in ops for p in op.params())
    want = 3 * (2 + 4) * step      # one lockstep node over three layers
    assert all(o.requires_grad for o in outs) and stacked > step
    assert want <= kept < want + SLACK


@pytest.mark.parametrize("stride", [1, 2])
def test_none_op_allocates_no_zeros(stride):
    x = leaf(np.random.default_rng(12), 4, 4, 32, 32)
    kept, out = retained(lambda: NoneOp(stride)(x))
    assert out.shape == (4, 4, 32 // stride, 32 // stride)
    assert not out.data.any() and not out.data.flags.writeable
    assert kept < SLACK < x.data.nbytes // stride ** 2


# ---- conv and norm as one node ----

def relu_first_ops(rng, channels, affine):
    """The ReLU-first candidate ops and the stem, each with the number of
    full-size maps its graph should keep in training mode: a ReLU output,
    a depthwise or 7x1 conv output, and per norm x̂ and, with affine, y."""
    per_norm = 2 if affine else 1
    return {
        "ReLUConvNorm": (ReLUConvNorm(channels, channels, rng, affine,
                                      kernel=3, dilation=2), 1 + per_norm),
        "SepConv": (SepConv(channels, 3, 1, rng, affine),
                    2 * (2 + per_norm)),
        "Conv7x1_1x7": (Conv7x1_1x7(channels, 1, rng, affine), 2 + per_norm),
        "Stem": (Stem(channels, rng, affine), per_norm),
    }


@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
@pytest.mark.parametrize("name", ["ReLUConvNorm", "SepConv", "Conv7x1_1x7",
                                  "Stem"])
def test_conv_norm_keeps_no_pre_norm_map_in_training(name, affine):
    rng = np.random.default_rng(8)
    op, maps = relu_first_ops(rng, 4, affine)[name]
    x = leaf(rng, 4, 1 if name == "Stem" else 4, 16, 16)
    kept, out = retained(lambda: op(x))
    want = maps * out.data.nbytes
    # several nodes' objects and per-channel statistics stay under half a map
    assert out.requires_grad
    assert want <= kept < want + out.data.nbytes // 2


@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
def test_eval_conv_norm_keeps_no_scaled_map(affine):
    rng = np.random.default_rng(9)
    op = ReLUConvNorm(4, 4, rng, affine, kernel=3)
    op.norm.running_var[...] = rng.uniform(0.5, 2.0, size=(1, 4, 1, 1))
    op.set_training(False)
    x = leaf(rng, 4, 4, 16, 16)
    kept, out = retained(lambda: op(x))
    # the ReLU output and y; the pre-scale map only for γ's gradient
    want = (3 if affine else 2) * out.data.nbytes
    assert out.requires_grad
    assert want <= kept < want + SLACK < want + out.data.nbytes


def test_search_cell_rectifies_each_source_node_once(monkeypatch):
    calls = Counter()

    def counted(x):
        calls[id(x)] += 1
        return relu(x)

    monkeypatch.setattr(emodarts.ops, "relu", counted)
    monkeypatch.setattr(emodarts.cell, "relu", counted, raising=False)
    rng = np.random.default_rng(10)
    cell = Cell("cnn", CNN_OPS, 4, 3, False, rng)
    inputs = [leaf(rng, 2, 4, 8, 8) for _ in range(2)]
    alphas = Tensor(rng.normal(size=(len(cell.edges), len(CNN_OPS))))
    cell(inputs, alphas)
    # sources are the inputs and the first two of three nodes; every
    # other ReLU is a SepConv's second block, one per SepConv
    sep_convs = 2 * len(cell.edges)
    assert all(calls[id(x)] == 1 for x in inputs)
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 4 + sep_convs


def conv_norm_loss(args, conv_args, stats, proj):
    """sum(proj * conv2d_norm(x, w, ...)) from arrays (x, w[, γ, β])."""
    x, w, *affine = (Tensor(a) if not isinstance(a, Tensor) else a
                     for a in args)
    y, _, _ = conv2d_norm(x, w, **conv_args, stats=stats,
                          gamma=affine[0] if affine else None,
                          beta=affine[1] if affine else None)
    return (y * Tensor(proj)).sum()


CONV_NORM_CASES = {
    "dense_s1": ((3, 3, 3, 3), dict(padding=1)),
    "dense_s2_dilated": ((3, 3, 3, 3), dict(stride=2, padding=2,
                                            dilation=2)),
    "grouped_s2": ((3, 1, 3, 3), dict(stride=2, padding=1, groups=3)),
    "pointwise": ((3, 3, 1, 1), {}),
}


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
@pytest.mark.parametrize("case", list(CONV_NORM_CASES))
def test_conv_norm_gradients_match_finite_differences(case, affine, mode):
    wshape, conv_args = CONV_NORM_CASES[case]
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=(3, 3, 6, 6)), rng.normal(size=wshape)]
    if affine:
        arrays += [rng.normal(size=(1, 3, 1, 1)), rng.normal(size=(1, 3, 1, 1))]
    stats = None if mode == "train" else (
        rng.normal(size=(1, 3, 1, 1)), rng.uniform(0.5, 2.0, (1, 3, 1, 1)))
    y0, _, _ = conv2d_norm(Tensor(arrays[0]), Tensor(arrays[1]), **conv_args)
    proj = rng.normal(size=y0.shape)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    conv_norm_loss(leaves, conv_args, stats, proj).backward()
    for i, arr in enumerate(arrays):
        def loss(v):
            args = [v if j == i else a for j, a in enumerate(arrays)]
            return conv_norm_loss(args, conv_args, stats, proj).item()
        np.testing.assert_allclose(leaves[i].grad,
                                   finite_diff_grad(loss, arr.copy()),
                                   rtol=1e-5, atol=1e-7)
