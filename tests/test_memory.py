"""What a graph node keeps alive until backward.

Each case builds one op from leaf inputs that need a gradient, holds only
the output Tensor, and reads with tracemalloc the bytes still allocated.
The inputs are allocated before tracing starts, so what is counted is the
output and whatever the op's vector-Jacobian closure holds. A window op
must not keep a padded copy of its input, and a recurrence must keep its
gate values and output but not the LSTM cell states, tanh(c), a copy of
x, a contiguous copy of lockstep state weights or the stacked lockstep
weights: those are rebuilt from arrays that the graph holds anyway. An
LSTM's backward may hold the cell states, tanh(c) and 1 - tanh²(c) for
the whole sequence, one block more than when it rebuilt tanh(c) per
step. A none op allocates no zeros. A conv that feeds a norm is one node that
keeps no pre-norm map and no scaled copy, and a CNN cell rectifies each
source node once. A Linear keeps its output only, and attention two
(B, T, H) maps. Backward adds the slice reads of one parent into one
zero-filled buffer. A depthwise conv over many clips builds its rows a
few clips at a time, and a dense conv the columns of its weight
gradient. The gradients of the same ops are checked against
finite_diff_grad, and the one-node forms against the Tensor-op chains
they replace, bit for bit.
"""

import gc
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import emodarts.cell
import emodarts.ops
from emodarts import (Cell, Tensor, avg_pool2d, conv2d, finite_diff_grad,
                      max_pool2d)
from emodarts.ops import (CNN_OPS, AdditiveAttention, Conv7x1_1x7, Linear,
                          NoneOp, ReLUConvNorm, SepConv, _recurrence,
                          build_seq_op, lstm_seq, rnn_seq, run_candidates)
from emodarts.supernet import Stem
from emodarts.tensor import concat, conv2d_norm, relu, softmax, tanh

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


def peak(fn):
    """(fn(), the peak bytes allocated while it ran, over those allocated
    before it)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_conv_over_64_clips_builds_its_rows_a_few_clips_at_a_time(
        stride, monkeypatch):
    # evaluate's batch of 64 clips, at a SepConv's 5x5 depthwise conv: the
    # rows of all 64 clips are 2.5-5 times the map, but no conv builds more
    # than COLUMN_BYTES of rows at a time, and none holds more than that
    # beyond the arrays it returns, in forward or in backward
    rng = np.random.default_rng(13)
    x, w = leaf(rng, 64, 8, 32, 32), leaf(rng, 8, 1, 5, 5)
    real, built = emodarts.tensor._rows, []

    def spy(*args):
        rows = real(*args)
        built.append(rows.nbytes)
        return rows

    monkeypatch.setattr(emodarts.tensor, "_rows", spy)
    cap = emodarts.tensor.COLUMN_BYTES
    out, held = peak(lambda: conv2d(x, w, stride=stride, padding=2, groups=8))
    assert len(built) > 1 and max(built) <= cap < sum(built)
    assert held - out.data.nbytes <= cap
    built.clear()
    g = rng.normal(size=out.shape)
    (dx, gw), held = peak(lambda: out._vjp(g))
    assert len(built) > 2 and max(built) <= cap
    assert held - dx.nbytes - gw.nbytes <= cap


@pytest.mark.parametrize("stride", [1, 2])
def test_dense_conv_over_64_clips_builds_its_weight_gradient_columns_a_few_clips_at_a_time(
        stride):
    # a dense 5x5 conv's im2col columns of 64 clips are 25 times the map;
    # the weight gradient builds at most COLUMN_BYTES of them at a time,
    # beside the padded input, one weight-sized product per clip and the
    # result
    rng = np.random.default_rng(14)
    x, w = Tensor(rng.normal(size=(64, 8, 32, 32))), leaf(rng, 8, 8, 5, 5)
    out = conv2d(x, w, stride=stride, padding=2)
    g = rng.normal(size=out.shape)
    (dx, gw), held = peak(lambda: out._vjp(g))
    padded = x.data.nbytes * (36 * 36) // (32 * 32)
    assert dx is None
    assert held - padded - 65 * gw.nbytes <= emodarts.tensor.COLUMN_BYTES


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
    # per layer the output, and for an LSTM its gate values; not the cell
    # states or tanh(c) (a step each), not the time-major copy of x
    # (x.nbytes) and not a contiguous copy of lockstep state weights
    want = (1 if cell == "rnn" else 1 + gates) * step * len(ws)
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
    want = 3 * (1 + 4) * step      # one lockstep node over three layers
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


# ---- the SeqNN graph: cell states, Linear, attention, slice reads ----

def arrays_held(fn) -> list:
    """The ndarrays that closure `fn` holds, through the closures it holds."""
    found, seen, todo = [], set(), [fn]
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                found.append(v)
            elif hasattr(v, "__closure__"):
                todo.append(v)
    return found


def test_lockstep_lstm_node_keeps_no_cell_states():
    bsz, tlen, feat, hid, k = 2, 5, 6, 4, 3     # distinct sizes
    rng = np.random.default_rng(13)
    x = leaf(rng, bsz, tlen, feat)
    ws = [leaf(rng, feat + hid, 4 * hid) for _ in range(k)]
    bs = [leaf(rng, 4 * hid) for _ in ws]
    out = _recurrence("lstm", x, ws, bs)
    held = {a.shape for a in arrays_held(out._vjp)}
    assert (tlen, k, bsz, 4 * hid) in held        # the gate values
    assert (tlen, k, bsz, hid) not in held        # no cell states



def test_lockstep_lstm_backward_peak_grows_by_at_most_one_block():
    # long_seq's first SeqNN layer: K = 6 LSTMs in lockstep over (B, T, H)
    # = (16, 32, 32), x shared. When back rebuilt tanh(c_t) at each step
    # (b0e7fd1), one vjp peaked at 5_803_912 traced bytes; computing the
    # cell states' tanh and 1 - tanh² once per sequence may cost one more
    # (T, K, B, H) block, not two
    k, bsz, tlen, hid = 6, 16, 32, 32
    rng = np.random.default_rng(21)
    x = leaf(rng, bsz, tlen, hid)
    ws = [leaf(rng, 2 * hid, 4 * hid) for _ in range(k)]
    bs = [leaf(rng, 4 * hid) for _ in ws]
    node = _recurrence("lstm", x, ws, bs)
    g = rng.normal(size=node.shape)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = node._vjp(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    block = tlen * k * bsz * hid * 8
    assert all(d is not None for d in grads)
    assert peak <= 5_803_912 + block

@pytest.mark.parametrize("lead", [(64,), (8, 16)], ids=["2d", "3d"])
def test_linear_keeps_one_output_sized_array(lead):
    rng = np.random.default_rng(14)
    lin = Linear(48, 40, rng)
    x = leaf(rng, *lead, 48)
    kept, out = retained(lambda: lin(x))
    assert out.requires_grad and out.shape == (*lead, 40)
    assert out.data.nbytes <= kept < out.data.nbytes + SLACK \
        < 2 * out.data.nbytes


def test_attention_keeps_two_maps():
    bsz, tlen, hid = 4, 16, 32
    rng = np.random.default_rng(15)
    att = AdditiveAttention(hid, rng)
    h = leaf(rng, bsz, tlen, hid)
    kept, out = retained(lambda: att(h))
    step = h.data.nbytes                 # one (B, T, H) map
    assert out.requires_grad and out.shape == h.shape
    assert kept <= 2 * step + SLACK < 3 * step


def composed_linear(x, w, b):
    return x @ w + b


def composed_attention(h, w, b, v):
    scores = softmax(tanh(h @ w + b) @ v, axis=1)
    return scores * h * float(h.shape[1])


def one_node_attention(h, w, b, v):
    att = AdditiveAttention(w.shape[0], np.random.default_rng(0))
    att.proj.weight, att.proj.bias, att.v = w, b, v
    return att(h)


def one_node_linear(x, w, b):
    lin = Linear(*w.shape, np.random.default_rng(0))
    lin.weight, lin.bias = w, b
    return lin(x)


SEQ_NODES = {
    # name: (one-node form, composed form, argument shapes)
    "linear_2d": (one_node_linear, composed_linear, [(5, 3), (3, 4), (4,)]),
    "linear_3d": (one_node_linear, composed_linear,
                  [(2, 5, 3), (3, 4), (4,)]),
    "attention": (one_node_attention, composed_attention,
                  [(2, 5, 3), (3, 3), (3,), (3, 1)]),
}


def seq_node_case(name, frozen):
    """(one-node form, composed form, arrays, which need a gradient)."""
    fn, composed, shapes = SEQ_NODES[name]
    rng = np.random.default_rng(16)
    arrays = [rng.normal(size=s) for s in shapes]
    return fn, composed, arrays, [i != frozen for i in range(len(arrays))]


@pytest.mark.parametrize("frozen", [None, 1, 2], ids=["all", "w", "b"])
@pytest.mark.parametrize("name", list(SEQ_NODES))
def test_seq_node_gradients_match_finite_differences(name, frozen):
    fn, _, arrays, grad = seq_node_case(name, frozen)
    proj = np.random.default_rng(17).normal(
        size=fn(*map(Tensor, arrays)).shape)
    leaves = [Tensor(a, requires_grad=g) for a, g in zip(arrays, grad)]
    (fn(*leaves) * Tensor(proj)).sum().backward()
    for i, arr in enumerate(arrays):
        if not grad[i]:
            assert leaves[i].grad is None
            continue

        def loss(v):
            args = [Tensor(v if j == i else a) for j, a in enumerate(arrays)]
            return float((fn(*args).data * proj).sum())
        np.testing.assert_allclose(leaves[i].grad,
                                   finite_diff_grad(loss, arr.copy()),
                                   rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("frozen", [None, 1, 2], ids=["all", "w", "b"])
@pytest.mark.parametrize("name", list(SEQ_NODES))
def test_seq_node_is_bit_identical_to_the_composed_ops(name, frozen):
    fn, composed, arrays, grad = seq_node_case(name, frozen)
    runs = []
    for form in (fn, composed):
        leaves = [Tensor(a, requires_grad=g) for a, g in zip(arrays, grad)]
        out = form(*leaves)
        (out * Tensor(np.cos(out.data))).sum().backward()
        runs.append([out.data] + [t.grad for t in leaves if t.requires_grad])
    for one, chain in zip(*runs):
        assert one.tobytes() == chain.tobytes()


def test_slice_reads_share_one_zero_filled_buffer(monkeypatch):
    rng = np.random.default_rng(18)
    x = leaf(rng, 3, 2, 4, 5)
    h = x * 2.0                                  # a (K, B, T, H) node
    proj = [rng.normal(size=h[key].shape) for key in (0, 1, slice(2))]
    loss = ((h[0] * Tensor(proj[0])).sum() + (h[1] * Tensor(proj[1])).sum()
            + (h[:2] * Tensor(proj[2])).sum())
    made = []
    for name in ("zeros", "zeros_like"):
        def spy(*args, real=getattr(np, name), **kwargs):
            out = real(*args, **kwargs)
            made.append(out.shape)
            return out
        monkeypatch.setattr(np, name, spy)
    loss.backward()
    monkeypatch.undo()
    assert made.count(h.shape) == 1
    want = np.zeros(h.shape)
    want[0] += proj[0]
    want[1] += proj[1]
    want[:2] += proj[2]
    np.testing.assert_array_equal(x.grad, 2.0 * want)


def test_slice_reads_never_write_into_a_gradient_a_vjp_returned():
    # h's first gradients are a read-only broadcast (sum) and views of one
    # array that an add and a concat hand to two parents; a slice read of
    # h or a must leave the other parent's share alone
    rng = np.random.default_rng(19)
    x = leaf(rng, 3, 4)
    h, a = x * 2.0, x * 3.0
    p, q = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))

    def loss(h, a):
        return (h.sum() + ((h + a) * Tensor(p)).sum()
                + (concat([h, a]) * Tensor(q)).sum()
                + (h[1:] * 5.0).sum() + (a[:, ::2] * 7.0).sum())

    loss(h, a).backward()
    np.testing.assert_allclose(x.grad, finite_diff_grad(
        lambda v: loss(Tensor(v) * 2.0, Tensor(v) * 3.0).item(),
        x.data.copy()), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_slice_reads_keep_the_bits_of_a_zero_filled_share(order):
    # an index-array read still adds a zero-filled array, as every read
    # once did; basic slices must give the same bits. A ReLU's gradient
    # under a negative weight is -0.0 where it is off, and where no read
    # reaches (h[2]) the zero-filled share turns a sum of two into 0.0
    rng = np.random.default_rng(20)
    arr = rng.normal(size=(3, 4, 5))
    neg = -rng.uniform(1.0, 2.0, size=(2, 3, 4, 5))
    q = rng.normal(size=(2, 4, 5))
    off = arr[2] < 0
    grads = []
    for keys in ((slice(2), slice(1, 2)), ([0, 1], [1])):
        x = Tensor(arr, requires_grad=True)
        h = x * 2.0
        terms = [(relu(h) * Tensor(neg[0])).sum(),
                 (relu(h) * Tensor(neg[1])).sum(),
                 (h[keys[0]] * Tensor(q)).sum() + (h[keys[1]] * 3.0).sum()]
        loss = terms[order[0]] + terms[order[1]] + terms[order[2]]
        loss.backward()
        grads.append(x.grad)
    assert off.any() and not np.signbit(grads[1][2][off]).any()
    assert grads[0].tobytes() == grads[1].tobytes()
