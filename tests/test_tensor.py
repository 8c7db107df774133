"""Oracle tests for the reverse-mode engine.

The independent oracle throughout is finite_diff_grad (central differences,
eps 1e-4), compared at rtol 1e-3 / atol 1e-5. Hand-derived closed forms are
asserted exactly where they exist.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emodarts import (ContractViolation, GraphReuseError, Tensor,
                      avg_pool2d, batch_norm, concat, conv2d, cross_entropy,
                      dropout, finite_diff_grad, log_softmax, max_pool2d,
                      relu, sigmoid, softmax, stack, tanh)
from emodarts.tensor import _mix

RTOL, ATOL = 1e-3, 1e-5


def check_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def fd(f, x):
    return finite_diff_grad(f, x.copy(), eps=1e-4)


def test_square_sum_gradient_is_2x():
    x = Tensor([1.0, 2.0, -3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, -6.0])


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_chain_x_squared_at_3_is_6():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_accumulation_when_tensor_feeds_two_consumers():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0 + x * x      # dy/dx = 3 + 2x = 7
    y.sum().backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractViolation):
        (x * x).backward()


def test_graph_reuse_is_detected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphReuseError):
        loss.backward()


def test_leaves_survive_graph_consumption():
    x = Tensor([1.0], requires_grad=True)
    (x * 2.0).sum().backward()
    (x * 3.0).sum().backward()
    assert x.grad[0] == pytest.approx(5.0)  # grads accumulate across calls


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        loss = cross_entropy(tanh(x @ w), np.array([0, 1, 2, 1]))
        loss.backward()
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_cross_entropy_gradient_matches_softmax_minus_onehot():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = np.array([0, 3, 1, 2, 2])
    cross_entropy(logits, labels).backward()
    p = np.exp(logits.data - logits.data.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    onehot = np.eye(4)[labels]
    np.testing.assert_allclose(logits.grad, (p - onehot) / 5, rtol=1e-12)


def test_cross_entropy_is_overflow_safe():
    logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]), requires_grad=True)
    loss = cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss.item()) and loss.item() == pytest.approx(0.0, abs=1e-9)
    loss.backward()
    assert np.all(np.isfinite(logits.grad))


@pytest.mark.parametrize("labels", [[0, 4], [-1, 2], [3, 5]])
def test_cross_entropy_rejects_labels_outside_the_classes(labels):
    # numpy would read -1 as the last class without complaint
    logits = Tensor(np.zeros((2, 4)), requires_grad=True)
    with pytest.raises(ContractViolation, match=r"\[0, 4\)"):
        cross_entropy(logits, np.array(labels))


@pytest.mark.parametrize("fn", [relu, tanh, sigmoid, softmax, log_softmax])
def test_elementwise_and_softmax_against_finite_differences(fn):
    rng = np.random.default_rng(hash(fn.__name__) % 2**32)
    base = rng.normal(size=(3, 6))
    if fn is relu:
        base += 0.02 * np.sign(base)   # keep coordinates away from the kink
    x = Tensor(base, requires_grad=True)
    (fn(x) * Tensor(rng.normal(size=(3, 6)))).sum().backward()
    w = rng.normal(size=(3, 6))

    def f(a):
        t = Tensor(a)
        out = fn(t)
        return float((out.data * w).sum())

    # rebuild with the same weighting used in the graph
    x2 = Tensor(base, requires_grad=True)
    (fn(x2) * Tensor(w)).sum().backward()
    check_close(x2.grad, fd(f, base))


def test_matmul_reductions_shapes_against_finite_differences():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))

    def build(av):
        t = Tensor(av, requires_grad=True)
        out = ((t @ Tensor(b)).reshape(2, 6).transpose(1, 0)[:4]).mean()
        return t, out

    t, out = build(a)
    out.backward()
    check_close(t.grad, fd(lambda av: build(av)[1].item(), a))


def test_batched_matmul_against_finite_differences():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))

    def f(av):
        return float((Tensor(av) @ Tensor(b)).data.sum())

    t = Tensor(a, requires_grad=True)
    (t @ Tensor(b)).sum().backward()
    check_close(t.grad, fd(f, a))


def test_concat_stack_getitem_against_finite_differences():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 4))

    def build(av):
        t = Tensor(av, requires_grad=True)
        parts = concat([t, t * 2.0], axis=1)          # (3, 8)
        piled = stack([parts, parts], axis=0)         # (2, 3, 8)
        return t, (piled[:, 1:, ::2] * 1.5).sum()

    t, out = build(a)
    out.backward()
    check_close(t.grad, fd(lambda av: build(av)[1].item(), a))


def test_mix_against_finite_differences():
    rng = np.random.default_rng(17)
    w, a, b = rng.normal(size=3), rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    g = rng.normal(size=(2, 5))
    const = rng.normal(size=(2, 5))     # a candidate with no graph

    def build(wv, av, bv):
        ts = [Tensor(v, requires_grad=True) for v in (wv, av, bv)]
        out = _mix(ts[0], [ts[1] * 2.0, Tensor(const), tanh(ts[2])])
        return ts, (out * Tensor(g)).sum()

    (tw, ta, tb), out = build(w, a, b)
    np.testing.assert_allclose(
        _mix(Tensor(w), [Tensor(a), Tensor(const), Tensor(b)]).data,
        w[0] * a + w[1] * const + w[2] * b, rtol=1e-12)
    out.backward()
    check_close(tw.grad, fd(lambda v: build(v, a, b)[1].item(), w))
    check_close(ta.grad, fd(lambda v: build(w, v, b)[1].item(), a))
    check_close(tb.grad, fd(lambda v: build(w, a, v)[1].item(), b))
    with pytest.raises(ContractViolation):
        _mix(Tensor(w), [Tensor(a), Tensor(a)])
    with pytest.raises(ContractViolation):
        _mix(Tensor(w[:2]), [Tensor(a), Tensor(a[:1])])


def test_getitem_repeated_indices_accumulate_gradient():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    a[[0, 0, 1]].sum().backward()
    np.testing.assert_array_equal(a.grad, [2.0, 1.0, 0.0])
    check_close(a.grad, fd(lambda av: Tensor(av)[[0, 0, 1]].sum().item(),
                           a.data))

    m = np.random.default_rng(14).normal(size=(3, 4))
    t = Tensor(m, requires_grad=True)
    (t[:, np.array([3, 1, 3])] * 2.0).sum().backward()
    check_close(t.grad, fd(
        lambda mv: (Tensor(mv)[:, np.array([3, 1, 3])] * 2.0).sum().item(), m))


def test_conv2d_against_finite_differences_input_and_weight():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3)) * 0.3

    def make(xv, wv):
        xt = Tensor(xv, requires_grad=True)
        wt = Tensor(wv, requires_grad=True)
        return xt, wt, conv2d(xt, wt, stride=1, padding=1).sum()

    xt, wt, out = make(x, w)
    out.backward()
    check_close(xt.grad, fd(lambda v: make(v, w)[2].item(), x))
    check_close(wt.grad, fd(lambda v: make(x, v)[2].item(), w))


def test_conv2d_strided_dilated_grouped_against_finite_differences():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 4, 8, 8))
    w = rng.normal(size=(4, 1, 3, 3)) * 0.4  # depthwise, groups=4

    def make(xv, wv):
        xt = Tensor(xv, requires_grad=True)
        wt = Tensor(wv, requires_grad=True)
        out = conv2d(xt, wt, stride=2, padding=2, dilation=2, groups=4)
        return xt, wt, (out * out).sum()

    xt, wt, out = make(x, w)
    assert out.shape == ()
    out.backward()
    check_close(xt.grad, fd(lambda v: make(v, w)[2].item(), x))
    check_close(wt.grad, fd(lambda v: make(x, v)[2].item(), w))


def _einsum_conv2d(x, w, g, stride, padding, dilation, groups):
    """The earlier einsum kernel, kept as the reference for the tap-loop
    and im2col kernels: returns (out, dx, gweight) for upstream g."""
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    bsz, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    ho = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    wo = (wd + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, (bsz, cin, kh, kw, ho, wo),
        (s0, s1, s2 * dh, s3 * dw, s2 * sh, s3 * sw))
    cols = cols.reshape(bsz, groups, cg, kh, kw, ho, wo)
    wg = w.reshape(groups, cout // groups, cg, kh, kw)
    out = np.einsum("bgcijhw,gocij->bgohw", cols, wg, optimize=True)
    gg = g.reshape(bsz, groups, cout // groups, ho, wo)
    gweight = np.einsum("bgcijhw,bgohw->gocij", cols, gg, optimize=True)
    dcols = np.einsum("gocij,bgohw->bgcijhw", wg, gg, optimize=True)
    dcols = dcols.reshape(bsz, cin, kh, kw, ho, wo)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i * dh:i * dh + sh * ho:sh,
                j * dw:j * dw + sw * wo:sw] += dcols[:, :, i, j]
    return (out.reshape(bsz, cout, ho, wo), dxp[:, :, ph:ph + h, pw:pw + wd],
            gweight.reshape(w.shape))


CONV_CASES = {
    # name: (input shape, weight shape, stride, padding, dilation, groups)
    "dense 3x3": ((2, 4, 9, 9), (5, 4, 3, 3), (1, 1), (1, 1), (1, 1), 1),
    "dilated 5x5 s2": ((2, 4, 12, 12), (4, 4, 5, 5), (2, 2), (4, 4), (2, 2), 1),
    "depthwise 3x3 s1": ((2, 4, 9, 9), (4, 1, 3, 3), (1, 1), (1, 1), (1, 1), 4),
    "depthwise 3x3 s2": ((2, 4, 9, 9), (4, 1, 3, 3), (2, 2), (1, 1), (1, 1), 4),
    "depthwise 5x5 s1": ((2, 4, 9, 9), (4, 1, 5, 5), (1, 1), (2, 2), (1, 1), 4),
    "depthwise 5x5 s2": ((2, 4, 9, 9), (4, 1, 5, 5), (2, 2), (2, 2), (1, 1), 4),
    "pointwise": ((2, 4, 9, 9), (6, 4, 1, 1), (1, 1), (0, 0), (1, 1), 1),
    "7x1 s(2,1)": ((2, 4, 12, 9), (4, 4, 7, 1), (2, 1), (3, 0), (1, 1), 1),
    "1x7": ((2, 4, 9, 12), (4, 4, 1, 7), (1, 1), (0, 3), (1, 1), 1),
    "baseline 1-channel 2x2 s2 p2": ((2, 1, 9, 8), (4, 1, 2, 2), (2, 2),
                                     (2, 2), (1, 1), 1),
    "groups 2, 2 channels each": ((2, 4, 9, 9), (6, 2, 3, 3), (1, 1), (1, 1),
                                  (1, 1), 2),
    # one input channel per group but two outputs: the GEMM path
    "channel multiplier": ((2, 4, 9, 9), (8, 1, 3, 3), (1, 1), (1, 1),
                           (1, 1), 4),
}


@pytest.mark.parametrize("name", list(CONV_CASES))
def test_conv2d_matches_the_einsum_reference(name):
    xshape, wshape, stride, padding, dilation, groups = CONV_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    x, w = rng.normal(size=xshape), rng.normal(size=wshape)
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride=stride, padding=padding, dilation=dilation,
                 groups=groups)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    ref = _einsum_conv2d(x, w, g, stride, padding, dilation, groups)
    for got, want in zip((out.data, xt.grad, wt.grad), ref):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("name", ["dense 3x3", "depthwise 5x5 s2"])
def test_conv2d_computes_no_gradient_for_a_frozen_parent(name):
    xshape, wshape, stride, padding, dilation, groups = CONV_CASES[name]
    rng = np.random.default_rng(3)
    x, w = rng.normal(size=xshape), rng.normal(size=wshape)
    args = dict(stride=stride, padding=padding, dilation=dilation,
                groups=groups)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    g = rng.normal(size=conv2d(xt, wt, **args).shape)
    (conv2d(xt, wt, **args) * Tensor(g)).sum().backward()
    for frozen in ("x", "w"):
        fx = Tensor(x, requires_grad=frozen != "x")
        fw = Tensor(w, requires_grad=frozen != "w")
        out = conv2d(fx, fw, **args)
        dx, gw = out._vjp(g)
        assert (dx is None) == (frozen == "x") and (gw is None) == (frozen == "w")
        (out * Tensor(g)).sum().backward()
        live, kept = (fw, wt) if frozen == "x" else (fx, xt)
        assert (fx if frozen == "x" else fw).grad is None
        np.testing.assert_array_equal(live.grad, kept.grad)


@pytest.mark.parametrize("shapes", [((4, 5), (5, 3)), ((2, 4, 5), (5, 3)),
                                    ((5,), (5, 3)), ((4, 5), (5,))],
                         ids=["matrix", "batched", "vector-left", "vector-right"])
def test_matmul_computes_no_gradient_for_a_frozen_parent(shapes):
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    g = rng.normal(size=(at @ bt).shape)
    ((at @ bt) * Tensor(g)).sum().backward()
    for frozen in ("a", "b"):
        fa = Tensor(a, requires_grad=frozen != "a")
        fb = Tensor(b, requires_grad=frozen != "b")
        out = fa @ fb
        ga, gb = out._vjp(g)
        assert (ga is None) == (frozen == "a") and (gb is None) == (frozen == "b")
        (out * Tensor(g)).sum().backward()
        live, kept = (fb, bt) if frozen == "a" else (fa, at)
        assert (fa if frozen == "a" else fb).grad is None
        np.testing.assert_array_equal(live.grad, kept.grad)


def _separated(rng, shape, gap=0.01):
    # values pairwise separated by >= gap, so pooling argmaxes cannot flip
    # under the finite-difference probe
    vals = rng.permutation(np.prod(shape)).astype(np.float64) * gap
    return vals.reshape(shape)


def test_max_pool_against_finite_differences():
    rng = np.random.default_rng(16)
    x = _separated(rng, (2, 2, 6, 6))

    def f(v):
        return float(max_pool2d(Tensor(v), 3, stride=1, padding=1).data.sum())

    t = Tensor(x, requires_grad=True)
    max_pool2d(t, 3, stride=1, padding=1).sum().backward()
    check_close(t.grad, fd(f, x))


def test_max_pool_stride2_against_finite_differences():
    rng = np.random.default_rng(17)
    x = _separated(rng, (1, 2, 8, 8))

    def f(v):
        return float(max_pool2d(Tensor(v), 3, stride=2, padding=1).data.sum())

    t = Tensor(x, requires_grad=True)
    max_pool2d(t, 3, stride=2, padding=1).sum().backward()
    check_close(t.grad, fd(f, x))


def test_max_pool_padding_never_wins():
    x = Tensor(-np.ones((1, 1, 3, 3)), requires_grad=True)
    out = max_pool2d(x, 3, stride=1, padding=1)
    assert out.data.max() == -1.0  # padded -inf cells lose to real values


def test_avg_pool_excludes_padding_from_counts():
    x = Tensor(np.ones((1, 1, 3, 3)))
    out = avg_pool2d(x, 3, stride=1, padding=1)
    # every window averages only over real cells, so all outputs are 1
    np.testing.assert_allclose(out.data, np.ones((1, 1, 3, 3)), rtol=1e-12)


def test_avg_pool_against_finite_differences():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 2, 6, 6))

    def f(v):
        return float((avg_pool2d(Tensor(v), 3, stride=2, padding=1).data ** 2).sum())

    t = Tensor(x, requires_grad=True)
    out = avg_pool2d(t, 3, stride=2, padding=1)
    (out * out).sum().backward()
    check_close(t.grad, fd(f, x))


def test_batch_norm_output_and_gradient():
    rng = np.random.default_rng(19)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 5, 5))
    t = Tensor(x, requires_grad=True)
    y, mean, var = batch_norm(t, axes=(0, 2, 3))
    assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    assert np.allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)
    w = rng.normal(size=y.shape)
    (y * Tensor(w)).sum().backward()

    def f(v):
        yv, _, _ = batch_norm(Tensor(v), axes=(0, 2, 3))
        return float((yv.data * w).sum())

    check_close(t.grad, fd(f, x))


def test_dropout_train_scales_and_eval_is_identity():
    x = Tensor(np.ones((1000,)), requires_grad=True)
    rng = np.random.default_rng(20)
    y = dropout(x, 0.3, rng, training=True)
    kept = y.data != 0
    assert 0.6 < kept.mean() < 0.8
    np.testing.assert_allclose(y.data[kept], 1.0 / 0.7, rtol=1e-12)
    z = dropout(x, 0.3, rng, training=False)
    assert z is x


def test_composite_network_gradient_matches_oracle():
    # two-layer net with every mainline primitive on the path
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 2, 6, 6))
    w1 = rng.normal(size=(4, 2, 3, 3)) * 0.3
    w2 = rng.normal(size=(4 * 6 * 6, 4)) * 0.1
    labels = np.array([0, 2, 1])

    def make(w1v):
        w1t = Tensor(w1v, requires_grad=True)
        h = conv2d(relu(Tensor(x + 0.03 * np.sign(x))), w1t, padding=1)
        hn, _, _ = batch_norm(h, axes=(0, 2, 3))
        logits = tanh(hn).reshape(3, -1) @ Tensor(w2)
        return w1t, cross_entropy(logits, labels)

    w1t, loss = make(w1)
    loss.backward()
    check_close(w1t.grad, fd(lambda v: make(v)[1].item(), w1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_addition_gradient_is_sum_preserving(a, b):
    n = min(len(a), len(b))
    x = Tensor(np.array(a[:n]), requires_grad=True)
    y = Tensor(np.array(b[:n]), requires_grad=True)
    (x + y).sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(n))
    np.testing.assert_array_equal(y.grad, np.ones(n))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_form_a_distribution(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
    s = softmax(x, axis=-1).data
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-12)


def test_matmul_with_a_vector_operand_backpropagates():
    a = Tensor(np.ones(3), requires_grad=True)
    m = Tensor(np.ones((3, 2)), requires_grad=True)
    (a @ m).sum().backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(m.grad, np.ones((3, 2)))
    v = Tensor(np.arange(2.0), requires_grad=True)
    (Tensor(np.ones((4, 2))) @ v).sum().backward()
    np.testing.assert_array_equal(v.grad, [4.0, 4.0])


# ---- property tests: every vjp against the finite-difference oracle ----

def check_vjps(fn, arrays, seed):
    """Backpropagate a random weighting of fn(*arrays) and compare the
    gradient of every argument with central differences."""
    arrays = [np.asarray(x, dtype=np.float64) for x in arrays]
    w = np.random.default_rng(seed).normal(size=np.shape(fn(*arrays)))
    ts = [Tensor(x, requires_grad=True) for x in arrays]
    (fn(*ts) * Tensor(w)).sum().backward()
    for k, x in enumerate(arrays):
        def f(v, k=k):
            args = [v if i == k else y for i, y in enumerate(arrays)]
            return float((fn(*map(Tensor, args)).data * w).sum())
        check_close(ts[k].grad, fd(f, x))


BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BINARY)),
       hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                         max_side=3),
       st.integers(0, 2**32 - 1))
def test_elementwise_vjps_under_broadcasting(op, shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=s) for s in shapes.input_shapes)
    if op == "/":   # keep the divisor away from zero
        b = np.where(b < 0, -1.0, 1.0) * (0.5 + np.abs(b))
    check_vjps(BINARY[op], [a, b], seed + 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["1-D", "2-D", "batched"]),
       st.sampled_from(["1-D", "2-D", "batched"]),
       hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=1,
                                         max_dims=2, max_side=3),
       st.tuples(*[st.integers(1, 3)] * 3), st.integers(0, 2**32 - 1))
def test_matmul_vjp_for_vector_matrix_and_batched_operands(
        kind_a, kind_b, batches, dims, seed):
    k, n, m = dims
    batch_a, batch_b = batches.input_shapes
    shape_a = {"1-D": (n,), "2-D": (k, n), "batched": batch_a + (k, n)}
    shape_b = {"1-D": (n,), "2-D": (n, m), "batched": batch_b + (n, m)}
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape_a[kind_a])
    b = rng.normal(size=shape_b[kind_b])
    check_vjps(lambda x, y: x @ y, [a, b], seed + 1)


@st.composite
def index_cases(draw):
    """An array shape and a key: an int, a slice (any step sign), a list of
    indices that may repeat, or a boolean mask on the first axis,
    optionally followed by an int or a slice on the second."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    n = shape[0]
    key = draw(st.one_of(
        st.integers(-n, n - 1), st.slices(n),
        st.lists(st.integers(-n, n - 1), min_size=1, max_size=6),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)))
    if len(shape) > 1 and draw(st.booleans()):
        key = (key, draw(st.one_of(st.integers(-shape[1], shape[1] - 1),
                                   st.slices(shape[1]))))
    return shape, key


@settings(max_examples=80, deadline=None)
@given(index_cases(), st.integers(0, 2**32 - 1))
def test_getitem_vjp_for_ints_slices_lists_and_masks(case, seed):
    shape, key = case
    x = np.random.default_rng(seed).normal(size=shape)
    check_vjps(lambda t: t[key], [x], seed + 1)


def test_finite_diff_restores_its_argument():
    x = np.arange(6.0).reshape(2, 3)
    before = x.copy()
    finite_diff_grad(lambda v: float((v ** 2).sum()), x)
    np.testing.assert_array_equal(x, before)
