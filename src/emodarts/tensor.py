"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and records, for every differentiable operation,
the parent tensors and a vector-Jacobian closure. backward() on a scalar
walks the recorded graph once in reverse topological order, accumulating
gradients additively into leaf tensors that were created with
requires_grad=True.

Graphs are single-use: the intermediate nodes of a forward pass are
consumed by backward(), and a second backward() through any consumed node
raises GraphReuseError. Leaves are never consumed, so parameters can be
reused across steps freely.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, GraphReuseError

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "relu", "tanh", "sigmoid",
    "softmax", "log_softmax", "cross_entropy", "dropout",
    "conv2d", "max_pool2d", "avg_pool2d", "batch_norm", "finite_diff_grad",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._vjp = None
        self._consumed = False

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        """Internal node constructor used by every differentiable op."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    # ---- introspection ----

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- backward ----

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar.

        Gradients add into .grad of every reachable leaf with
        requires_grad=True. The traversed graph is marked consumed.
        """
        if self.data.ndim != 0:
            raise ContractViolation(
                f"backward() requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ContractViolation("backward() on a tensor with no graph")

        order: list[Tensor] = []
        visited = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._consumed:
                raise GraphReuseError(
                    "backward() through a graph that was already consumed")
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        pending: dict[int, np.ndarray] = {id(self): np.ones((), dtype=np.float64)}
        for node in reversed(order):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not p.requires_grad:
                    continue
                k = id(p)
                if k in pending:
                    pending[k] = pending[k] + pg
                else:
                    pending[k] = pg
            node._consumed = True
            node._parents = ()
            node._vjp = None

    # ---- arithmetic ----

    def __add__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.data.shape),
                       _unbroadcast(g * a.data, b.data.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data / b.data, (a, b),
            lambda g: (_unbroadcast(g / b.data, a.data.shape),
                       _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))

    def __pow__(self, p: float):
        if not isinstance(p, (int, float)):
            raise ContractViolation("only scalar exponents are supported")
        a = self
        return Tensor._make(
            a.data ** p, (a,), lambda g: (g * p * a.data ** (p - 1),))

    def __matmul__(self, other):
        a, b = self, as_tensor(other)
        out = a.data @ b.data

        def vjp(g):
            # lift a 1-D operand to a matrix as numpy does; drop the axis
            # after. Only an operand with requires_grad gets a gradient.
            ad, bd = a.data, b.data
            if bd.ndim == 1:
                bd, g = bd[:, None], g[..., None]
            if ad.ndim == 1:
                ad, g = ad[None], g[..., None, :]
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2),
                                  ad.shape).reshape(a.data.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                  bd.shape).reshape(b.data.shape)
            return ga, gb

        return Tensor._make(out, (a, b), vjp)

    def __getitem__(self, key):
        a = self
        out = a.data[key]

        # an index array may repeat an entry, and each repeat must add its
        # share; slices and ints keep the faster in-place add
        fancy = any(isinstance(k, (list, np.ndarray))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def vjp(g):
            dx = np.zeros_like(a.data)
            if fancy:
                np.add.at(dx, key, g)
            else:
                dx[key] += g
            return (dx,)

        return Tensor._make(out, (a,), vjp)

    # ---- shape ----

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor._make(
            a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))

    def transpose(self, *axes):
        a = self
        if not axes:
            axes = tuple(range(a.ndim))[::-1]
        inv = tuple(np.argsort(axes))
        return Tensor._make(
            a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))

    # ---- reductions ----

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape),)

        return Tensor._make(out, (a,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.mean(axis=axis, keepdims=keepdims)
        n = a.data.size // out.size

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g / n, a.data.shape),)

        return Tensor._make(out, (a,), vjp)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# ---- joining ----

def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(ts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor._make(out, tuple(ts), vjp)


def stack(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in ts], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(ts)))

    return Tensor._make(out, tuple(ts), vjp)


def _mix(weights: Tensor, outs) -> Tensor:
    """sum_k weights[k] * outs[k] over a (K,) weight vector and K tensors of
    one shape, accumulated in candidate order as one graph node (no K-fold
    stacked copy stays alive until backward)."""
    outs = [as_tensor(o) for o in outs]
    wd = weights.data
    if wd.shape != (len(outs),) or any(o.shape != outs[0].shape for o in outs):
        raise ContractViolation(
            f"mix wants one weight per candidate and candidates of one shape, "
            f"got weights {wd.shape} and {[o.shape for o in outs]}")
    out = wd[0] * outs[0].data
    for k in range(1, len(outs)):
        out += wd[k] * outs[k].data

    def vjp(g):
        gw = (np.array([np.vdot(g, o.data) for o in outs])
              if weights.requires_grad else None)
        return (gw,) + tuple(g * wd[k] if o.requires_grad else None
                             for k, o in enumerate(outs))

    return Tensor._make(out, (weights, *outs), vjp)


# ---- elementwise ----

def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return Tensor._make(
        np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0),))


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)
    return Tensor._make(out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(out, (x,), lambda g: (g * out * (1.0 - out),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return ((g - (g * s).sum(axis=axis, keepdims=True)) * s,)

    return Tensor._make(s, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def vjp(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(ls, (x,), vjp)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels in [0, K) under
    softmax(logits).

    Computed through log-sum-exp, so large logits do not overflow.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ContractViolation(
            f"cross_entropy expects (B, K) logits and (B,) labels, got "
            f"{logits.shape} and {labels.shape}")
    n, k = logits.shape
    if ((labels < 0) | (labels >= k)).any():
        raise ContractViolation(f"cross_entropy labels must lie in [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -ls[np.arange(n), labels].mean()

    def vjp(g):
        d = np.exp(ls)
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return Tensor._make(np.asarray(loss), (logits,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval is identity."""
    if not training or p <= 0.0:
        return x
    x = as_tensor(x)
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return Tensor._make(x.data * mask, (x,), lambda g: (g * mask,))


# ---- convolution and pooling ----

def _pair(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v, v)


def _out_size(n: int, kernel: int, stride: int = 1, padding: int = 0,
              dilation: int = 1) -> int:
    """Output length of a window op along one axis of length n."""
    return (n + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _windows(xp: np.ndarray, kh, kw, sh, sw, dh, dw, ho, wo):
    # strided view (B, C, kh, kw, Ho, Wo) over the padded input
    b, c = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    shape = (b, c, kh, kw, ho, wo)
    strides = (s0, s1, s2 * dh, s3 * dw, s2 * sh, s3 * sw)
    return np.lib.stride_tricks.as_strided(xp, shape, strides)


def _taps(a: np.ndarray, kh, kw, sh, sw, dh, dw, ho, wo):
    """Yield (i, j, view) for each kernel tap: the (..., Ho, Wo) slice of
    the padded map `a` that tap (i, j) reads."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, a[..., i * dh:i * dh + sh * (ho - 1) + 1:sh,
                          j * dw:j * dw + sw * (wo - 1) + 1:sw]


def conv2d(x: Tensor, w: Tensor, stride=1, padding=0, dilation=1,
           groups: int = 1) -> Tensor:
    """2-D cross-correlation. x: (B, Cin, H, W), w: (Cout, Cin/groups, kh, kw).

    A depthwise convolution (one input and one output channel per group)
    runs as a loop over kernel taps; every other one as an im2col GEMM per
    group. Only parents with requires_grad get a gradient. No bias term;
    the op catalog always follows a convolution with a normalization
    layer, which absorbs any constant shift.
    """
    x, w = as_tensor(x), as_tensor(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    dh, dw = _pair(dilation)
    bsz, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    if cin != cg * groups or cout % groups:
        raise ContractViolation(
            f"conv2d channel mismatch: x has {cin} channels, weight is "
            f"{w.shape} with groups={groups}")
    ho, wo = _out_size(h, kh, sh, ph, dh), _out_size(wd, kw, sw, pw, dw)
    if ho <= 0 or wo <= 0:
        raise ContractViolation(f"conv2d produces empty output from {x.shape}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    geom = (kh, kw, sh, sw, dh, dw, ho, wo)
    og = cout // groups

    def dx_of(dtap):
        # scatter-add each tap's (B, groups, cg, Ho, Wo) input gradient back
        # onto the padded map
        dxp = np.zeros_like(xp)
        for i, j, view in _taps(dxp.reshape(bsz, groups, cg, *xp.shape[2:]),
                                *geom):
            view += dtap(i, j)
        return dxp[:, :, ph:ph + h, pw:pw + wd]

    if cg == 1 and cout == cin:
        wk = w.data[:, 0, :, :, None, None]          # (C, kh, kw, 1, 1)
        out = np.zeros((bsz, cout, ho, wo))
        for i, j, view in _taps(xp, *geom):
            out += view * wk[:, i, j]

        def vjp(g):
            dx = (dx_of(lambda i, j: (g * wk[:, i, j])[:, :, None])
                  if x.requires_grad else None)
            gw = None
            if w.requires_grad:
                gw = np.empty(w.shape)
                for i, j, view in _taps(xp, *geom):
                    gw[:, 0, i, j] = np.einsum("bchw,bchw->c", view, g)
            return dx, gw

        return Tensor._make(out, (x, w), vjp)

    def columns():
        # (groups, cg*kh*kw, B*Ho*Wo), one contiguous copy of the windows
        win = _windows(xp, *geom).reshape(bsz, groups, cg, kh, kw, ho, wo)
        return np.ascontiguousarray(win.transpose(1, 2, 3, 4, 0, 5, 6)).reshape(
            groups, cg * kh * kw, bsz * ho * wo)

    wmat = w.data.reshape(groups, og, cg * kh * kw)
    out = (wmat @ columns()).reshape(groups, og, bsz, ho, wo)
    out = out.transpose(2, 0, 1, 3, 4).reshape(bsz, cout, ho, wo)

    def vjp(g):
        gmat = np.ascontiguousarray(
            g.reshape(bsz, groups, og, ho, wo).transpose(1, 2, 0, 3, 4)
        ).reshape(groups, og, bsz * ho * wo)
        gw = None
        if w.requires_grad:
            gw = (gmat @ columns().transpose(0, 2, 1)).reshape(w.shape)
        dx = None
        if x.requires_grad:
            dcols = (wmat.transpose(0, 2, 1) @ gmat).reshape(
                groups, cg, kh, kw, bsz, ho, wo)
            dx = dx_of(lambda i, j: dcols[:, :, i, j].transpose(2, 0, 1, 3, 4))
        return dx, gw

    return Tensor._make(out, (x, w), vjp)


def max_pool2d(x: Tensor, kernel: int = 3, stride=1, padding: int = 1) -> Tensor:
    """Max pooling; padded cells never win (they are filled with -inf)."""
    x = as_tensor(x)
    sh, sw = _pair(stride)
    bsz, c, h, wd = x.shape
    ho, wo = _out_size(h, kernel, sh, padding), _out_size(wd, kernel, sw, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    win = _windows(xp, kernel, kernel, sh, sw, 1, 1, ho, wo)
    flat = win.reshape(bsz, c, kernel * kernel, ho, wo)
    idx = flat.argmax(axis=2)
    out = np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0]

    def vjp(g):
        hp, wp = xp.shape[2], xp.shape[3]
        bi, ci, hi, wi = np.ogrid[:bsz, :c, :ho, :wo]
        rows = hi * sh + idx // kernel
        cols = wi * sw + idx % kernel
        lin = (((bi * c + ci) * hp + rows) * wp + cols).ravel()
        dxp = np.bincount(lin, weights=g.ravel(), minlength=xp.size)
        dxp = dxp.reshape(xp.shape)
        return (dxp[:, :, padding:padding + h, padding:padding + wd],)

    return Tensor._make(out, (x,), vjp)


def avg_pool2d(x: Tensor, kernel: int = 3, stride=1, padding: int = 1) -> Tensor:
    """Average pooling; padded cells are excluded from each window's count."""
    x = as_tensor(x)
    sh, sw = _pair(stride)
    bsz, c, h, wd = x.shape
    ho, wo = _out_size(h, kernel, sh, padding), _out_size(wd, kernel, sw, padding)
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data, pad)
    ones = np.pad(np.ones((1, 1, h, wd)), pad)
    counts = _windows(ones, kernel, kernel, sh, sw, 1, 1, ho, wo).sum(axis=(2, 3))
    win = _windows(xp, kernel, kernel, sh, sw, 1, 1, ho, wo)
    out = win.sum(axis=(2, 3)) / counts

    def vjp(g):
        gd = g / counts
        dxp = np.zeros_like(xp)
        for i in range(kernel):
            for j in range(kernel):
                dxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += gd
        return (dxp[:, :, padding:padding + h, padding:padding + wd],)

    return Tensor._make(out, (x,), vjp)


def batch_norm(x: Tensor, axes: tuple, eps: float = 1e-5):
    """Normalize x to zero mean, unit variance over `axes` (biased variance).

    Returns (normalized Tensor, batch mean, batch variance); the caller owns
    running-statistic bookkeeping and any affine transform.
    """
    x = as_tensor(x)
    mean = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv

    def vjp(g):
        gm = g.mean(axis=axes, keepdims=True)
        gx = (g * xhat).mean(axis=axes, keepdims=True)
        return (inv * (g - gm - xhat * gx),)

    return Tensor._make(xhat, (x,), vjp), mean, var


# ---- the independent oracle ----

def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f at x, coordinate by coordinate.

    x is perturbed in place and restored. This deliberately shares no code
    with backward(); it exists to check the engine, not to be fast.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + eps
        fp = f(x)
        x[ix] = orig - eps
        fm = f(x)
        x[ix] = orig
        g[ix] = (fp - fm) / (2.0 * eps)
    return g
