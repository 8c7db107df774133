"""What a graph node keeps alive until backward.

Each case builds one op from leaf inputs that need a gradient, holds only
the output Tensor, and reads with tracemalloc the bytes still allocated.
The inputs are allocated before tracing starts, so what is counted is the
output and whatever the op's vector-Jacobian closure holds. A window op
must not keep a padded copy of its input, and a recurrence must keep its
gate values, cell states and output but not tanh(c), a copy of x or a
contiguous copy of lockstep state weights: those are rebuilt from arrays
that the graph holds anyway. The gradients of the same ops are checked
against finite_diff_grad.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from emodarts import (Tensor, avg_pool2d, conv2d, finite_diff_grad,
                      max_pool2d)
from emodarts.ops import lstm_seq, rnn_seq

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


@pytest.mark.parametrize("layers", [(), (3,)], ids=["single", "lockstep"])
@pytest.mark.parametrize("cell", list(RECURRENCES))
def test_recurrence_keeps_gates_states_and_output_only(cell, layers):
    op, gates = RECURRENCES[cell]
    bsz, tlen, feat, hid = 4, 16, 32, 32
    rng = np.random.default_rng(5)
    x = leaf(rng, bsz, tlen, feat)
    w = leaf(rng, *layers, feat + hid, gates * hid)
    b = leaf(rng, *layers, gates * hid)
    kept, out = retained(lambda: op(x, w, b))
    step = bsz * tlen * hid * 8          # one (B, T, H) float64 array
    # per layer the output, and for an LSTM its gate values and cell
    # states; not tanh(c) (another step), not the time-major copy of x
    # (x.nbytes) and not a contiguous copy of lockstep state weights
    want = (1 if cell == "rnn" else 2 + gates) * step * int(np.prod(layers))
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
