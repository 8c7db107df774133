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

import functools

import numpy as np

from .errors import ContractViolation, GraphReuseError

__all__ = [
    "Tensor", "as_tensor", "concat", "relu", "tanh", "softmax",
    "cross_entropy", "dropout",
    "conv2d", "conv2d_norm", "max_pool2d", "avg_pool2d", "batch_norm",
    "finite_diff_grad",
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


class _Part:
    """A basic-slice read's gradient: g at `key` of its parent's shape and
    zero elsewhere. backward adds it into a buffer it owns, so a parent
    read many times gets one zero-filled array, not one per read."""

    __slots__ = ("key", "g")

    def __init__(self, key, g: np.ndarray):
        self.key, self.g = key, g


def _contiguous(a) -> bool:
    """a is a C-contiguous array, not a numpy scalar."""
    return isinstance(a, np.ndarray) and a.flags.c_contiguous


def _matmul_grads(a: "Tensor", b: "Tensor", g: np.ndarray) -> tuple:
    """The gradients of a.data @ b.data at output gradient g: lift a 1-D
    operand to a matrix as numpy does and drop the axis after. Only an
    operand with requires_grad gets one."""
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

        # pending sums each parent's gradient. It adds in place only into
        # a C-contiguous array that backward allocated (owned): a vjp may
        # return a view, and a sum over other layouts may lay its result
        # out otherwise, which changes the order of a later reduction. A
        # basic-slice read adds its share into one owned zero-filled
        # buffer per parent; while that buffer holds no -0.0 (owned[k]
        # True), this gives the bits that a zero-filled array per read did.
        pending: dict[int, np.ndarray] = {id(self): np.ones((), dtype=np.float64)}
        owned: dict[int, bool] = {}
        for node in reversed(order):
            g = pending.pop(id(node), None)
            owned.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not p.requires_grad:
                    continue
                k = id(p)
                total = pending.get(k)
                if isinstance(pg, _Part):
                    if (owned.get(k) and _contiguous(total)
                            and _contiguous(p.data)):
                        total[pg.key] += pg.g
                    else:
                        part = np.zeros_like(p.data)
                        part[pg.key] += pg.g
                        total = part if total is None else total + part
                        owned[k] = True
                elif total is None:
                    total = pg
                elif k in owned and _contiguous(total) and _contiguous(pg):
                    total += pg
                else:
                    total = total + pg
                    owned[k] = owned.get(k, False)
                pending[k] = total
            node._consumed = True
            node._parents = ()
            node._vjp = None

    # ---- arithmetic ----

    def __add__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                       _unbroadcast(g, b.data.shape) if b.requires_grad else None))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(
            a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.data.shape)
                       if a.requires_grad else None,
                       _unbroadcast(g * a.data, b.data.shape)
                       if b.requires_grad else None))

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self, as_tensor(other)
        return Tensor._make(a.data @ b.data, (a, b),
                            lambda g: _matmul_grads(a, b, g))

    def __getitem__(self, key):
        a = self
        out = a.data[key]

        # an index array may repeat an entry, and each repeat must add its
        # share; a basic key's share is added by backward into one buffer
        # per parent
        fancy = any(isinstance(k, (list, np.ndarray))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def vjp(g):
            if not fancy:
                return (_Part(key, g),)
            dx = np.zeros_like(a.data)
            np.add.at(dx, key, g)
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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return ((g - (g * s).sum(axis=axis, keepdims=True)) * s,)

    return Tensor._make(s, (x,), vjp)


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


def _geometry(op: str, hw, kernel, stride, padding, dilation=(1, 1),
              pool: bool = False) -> tuple:
    """(kh, kw, sh, sw, dh, dw, Ho, Wo) of a window op over an (H, W) map.

    Kernel, stride and dilation must be >= 1 and padding >= 0; a pool's
    padding must also be <= kernel // 2, so every window holds a real cell.
    """
    if (min(*kernel, *stride, *dilation) < 1 or min(padding) < 0 or pool
            and any(p > k // 2 for p, k in zip(padding, kernel))):
        raise ContractViolation(
            f"{op} wants kernel, stride and dilation >= 1 and padding >= 0"
            f"{' and <= kernel // 2' if pool else ''}, got kernel {kernel}, "
            f"stride {stride}, padding {padding}, dilation {dilation}")
    ho, wo = map(_out_size, hw, kernel, stride, padding, dilation)
    if ho <= 0 or wo <= 0:
        raise ContractViolation(f"{op} produces empty output from {hw} maps")
    return (*kernel, *stride, *dilation, ho, wo)


def _pad(a: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    """`a` with ph rows and pw columns of `value` added on both sides of its
    last two axes; `a` itself when there is nothing to add."""
    if not (ph or pw):
        return a
    *lead, h, w = a.shape
    out = np.empty((*lead, h + 2 * ph, w + 2 * pw))
    out[..., :ph, :] = out[..., ph + h:, :] = value
    out[..., :pw] = out[..., pw + w:] = value
    out[..., ph:ph + h, pw:pw + w] = a
    return out


COLUMN_BYTES = 8 << 20     # im2col columns built at a time for one conv


def _columns(xp: np.ndarray, groups: int, geom) -> np.ndarray:
    """(B, groups, cg*kh*kw, Ho*Wo) im2col columns of the padded map xp,
    batch-major so that a (groups, og, cg*kh*kw) weight matrix times them is
    already NCHW; a view of xp for a 1x1 stride-1 kernel."""
    kh, kw, sh, sw, dh, dw, ho, wo = geom
    (b, c), (s0, s1, s2, s3) = xp.shape[:2], xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (b, c, kh, kw, ho, wo), (s0, s1, s2 * dh, s3 * dw, s2 * sh, s3 * sw)
    ).reshape(b, groups, -1, ho * wo)


def _clips(n: int, clip_bytes: int):
    """Slices of a batch of n clips, a few clips each, such that what one
    clip's GEMM reads (clip_bytes) fills at most COLUMN_BYTES per slice,
    or one clip. A clip's GEMM reads only its own columns or rows, so they
    are built one slice at a time, which bounds the largest array a conv
    allocates and changes no bit."""
    step = max(1, COLUMN_BYTES // clip_bytes)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _correlate(xp: np.ndarray, wmat: np.ndarray, geom) -> np.ndarray:
    """Grouped cross-correlation of the padded map xp with the weight matrix
    wmat (groups, og, cg*kh*kw): (B, groups*og, Ho, Wo), its im2col columns
    built a few clips at a time."""
    out = np.empty((len(xp), *wmat.shape[:2], geom[-2] * geom[-1]))
    for sl in _clips(len(xp), 8 * wmat[:, 0].size * out.shape[-1]):
        np.matmul(wmat, _columns(xp[sl], len(wmat), geom), out=out[sl])
    return out.reshape(len(xp), -1, *geom[-2:])


def _rows(a: np.ndarray, kh: int, sh: int, dh: int, ho: int) -> np.ndarray:
    """(B, C, Ho, kh*W): for each output row of a row-wise window op over
    the (B, C, H, W) map a, the kh rows of a that it reads, side by side.
    With dilation 1 over contiguous rows it is a view of a, whose output
    rows overlap; numpy's matmul copies one clip and channel of it at a
    time. Else it is a copy kh times the size of the rows read, where
    im2col's is kh*kw times."""
    (b, c, _, w), (s0, s1, s2, s3) = a.shape, a.strides
    return np.lib.stride_tricks.as_strided(
        a, (b, c, ho, kh, w), (s0, s1, s2 * sh, s2 * dh, s3)
    ).reshape(b, c, ho, kh * w)


@functools.lru_cache(maxsize=64)
def _diagonals(w: int, wo: int, kw: int, sw: int, dw: int, pw: int):
    """Where the column taps of a conv row lie in a (W, Wo) block, whose
    entry (u, o) pairs input column u with output column o: tap j meets
    output column o at u = o*sw + j*dw - pw, on the map if 0 <= u < W.
    Returns two read-only (Wo, kw) arrays: the flat index u*Wo + o, with u
    clipped onto the map, and whether u is on it."""
    o, j = np.ogrid[:wo, :kw]
    u = o * sw + j * dw - pw
    on = (u >= 0) & (u < w)
    flat = np.clip(u, 0, w - 1) * wo + o
    flat.flags.writeable = on.flags.writeable = False
    return flat, on


def _depthwise(x: "Tensor", w: "Tensor", geom, ph: int, pw: int) -> "Tensor":
    """conv2d with one input and one output channel per group, as a batch
    of per-channel row-Toeplitz GEMMs (MEC, arXiv 1706.06873). Channel c's
    Toeplitz matrix T_c is (kh*W, Wo), with tap w[c, i, j] at row i*W + u
    and column o for every on-map u = o*sw + j*dw - pw, and zeros elsewhere;
    the column padding lies in T_c, so only rows are padded. Forward is
    `_rows` of the row-padded map times T_c. The input gradient is, per
    stride phase of the rows (`_phases`), `_rows` of the output gradient
    times the phase's taps of T_c transposed. The weight gradient is
    `_rows`ᵀ times the output gradient per clip, a (kh*W, Wo) block whose
    tap sums lie along the diagonals of `_diagonals`, summed over clips."""
    kh, kw, sh, sw, dh, dw, ho, wo = geom
    bsz, c, h, wd = x.shape
    flat, on = _diagonals(wd, wo, kw, sw, dw, pw)

    def toeplitz() -> np.ndarray:       # (C, kh, W*Wo)
        t = np.zeros((c, kh, wd * wo))
        t[..., flat[on]] = w.data[:, 0][..., np.nonzero(on)[1]]
        return t

    t = toeplitz().reshape(c, kh * wd, wo)
    out = np.empty((bsz, c, ho, wo))
    for sl in _clips(bsz, 8 * c * ho * kh * wd):
        np.matmul(_rows(_pad(x.data[sl], ph, 0), kh, sh, dh, ho), t,
                  out=out[sl])

    def vjp(g):
        gw = dx = None
        if w.requires_grad:
            per_clip = np.empty((kw, bsz, c, kh))
            for sl in _clips(bsz, 8 * c * kh * wd * (ho + wo)):
                m = (_rows(_pad(x.data[sl], ph, 0), kh, sh, dh, ho)
                     .swapaxes(-1, -2) @ g[sl])
                # (Wo, kw, clips, C, kh): the diagonals, output column first,
                # so that their sums add whole slabs
                taps = m.reshape(-1, c, kh, wd * wo).transpose(3, 0, 1, 2)[flat]
                taps[~on] = 0.0
                taps.sum(axis=0, out=per_clip[:, sl])
            gw = per_clip.sum(axis=1).transpose(1, 2, 0).reshape(w.shape)
        if x.requires_grad:
            tt = toeplitz().reshape(c, kh, wd, wo).swapaxes(-1, -2)
            qh, phases = _phases(h, kh, sh, ph, dh)
            # stride 1 has one phase, every row; else tapless ones stay 0
            dx = np.empty(x.shape) if sh == 1 else np.zeros(x.shape)
            for rh, th, ch, (nh, eh, mh) in phases:
                tp = tt[:, th].reshape(c, nh * wo, wd)
                for sl in _clips(bsz, 8 * c * mh * nh * wo):
                    gp = _pad(g[sl], qh, 0)[:, :, ch:]
                    np.matmul(_rows(gp, nh, 1, eh, mh), tp,
                              out=dx[sl, :, rh::sh])
        return dx, gw

    return Tensor._make(out, (x, w), vjp)


def _phases(n: int, k: int, s: int, p: int, d: int):
    """The stride phases of one axis of a conv's input gradient: input cell
    u = rho + s*m gets tap i, if i*d = rho + p (mod s), from output cell
    m + (rho + p - i*d) / s. Returns q, the output gradient's padding, and
    per phase with taps (rho, its taps as a slice from the last one down,
    where the last tap's window starts, (n_taps, dilation, n_cells))."""
    e, q = d // np.gcd(d, s), max(0, ((k - 1) * d - p + s - 1) // s)
    taps = [[i for i in range(k) if (rho + p - i * d) % s == 0]
            for rho in range(min(s, n))]
    return q, [(rho, slice(t[-1], None, -s * e // d),
                q + (rho + p - t[-1] * d) // s, (len(t), e, len(range(rho, n, s))))
               for rho, t in enumerate(taps) if t]


def _taps(a: np.ndarray, kh, kw, sh, sw, dh, dw, ho, wo):
    """The (..., Ho, Wo) slice of the padded map `a` that each kernel tap
    reads, in (i, j) order."""
    return (a[..., i * dh:i * dh + sh * (ho - 1) + 1:sh,
              j * dw:j * dw + sw * (wo - 1) + 1:sw]
            for i in range(kh) for j in range(kw))


def _tap_reduce(ufunc, a: np.ndarray, geom) -> np.ndarray:
    """ufunc folded over the tap views of `a` in (i, j) order."""
    views = _taps(a, *geom)
    out = next(views).copy()
    for view in views:
        ufunc(out, view, out=out)
    return out


def conv2d(x: Tensor, w: Tensor, stride=1, padding=0, dilation=1,
           groups: int = 1) -> Tensor:
    """2-D cross-correlation. x: (B, Cin, H, W), w: (Cout, Cin/groups, kh, kw).

    A depthwise conv, one input and one output channel per group (told by
    the weight's shape), runs as per-channel row-Toeplitz GEMMs
    (`_depthwise`). Any other conv's forward is the grouped im2col GEMM of
    `_correlate`; its weight gradient is the output gradient times the
    same columns, and its input gradient `_correlate` of the output
    gradient with the flipped, channel-swapped kernel, once per pair of
    stride phases (`_phases`). Only parents with requires_grad get a
    gradient. The node keeps no padded copy of x: the weight gradient pads
    x.data again. No bias term; the op catalog always follows a
    convolution with a normalization layer, which absorbs any constant
    shift (`conv2d_norm`).
    """
    x, w = as_tensor(x), as_tensor(w)
    ph, pw = _pair(padding)
    bsz, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    if cin != cg * groups or cout % groups:
        raise ContractViolation(
            f"conv2d channel mismatch: x has {cin} channels, weight is "
            f"{w.shape} with groups={groups}")
    geom = _geometry("conv2d", (h, wd), (kh, kw), _pair(stride), (ph, pw),
                     _pair(dilation))
    sh, sw, dh, dw = geom[2:6]
    og = cout // groups
    if cg == og == 1:
        return _depthwise(x, w, geom, ph, pw)
    out = _correlate(_pad(x.data, ph, pw), w.data.reshape(groups, og, -1), geom)

    def vjp(g):
        gw = dx = None
        if w.requires_grad:
            xp = _pad(x.data, ph, pw)
            gw = (g.reshape(bsz, groups, og, -1) @ _columns(xp, groups, geom)
                  .swapaxes(-1, -2)).sum(axis=0).reshape(w.shape)
        if x.requires_grad:
            wt = w.data.reshape(groups, og, cg, kh, kw).swapaxes(1, 2)
            (qh, rows), (qw, cols) = (_phases(h, kh, sh, ph, dh),
                                      _phases(wd, kw, sw, pw, dw))
            gp = _pad(g, qh, qw)
            # stride 1 has one phase, the whole map; else tapless ones stay 0
            dx = None if (sh, sw) == (1, 1) else np.zeros(x.shape)
            for rh, th, ch, (nh, eh, mh) in rows:
                for rw, tw, cw, (nw, ew, mw) in cols:
                    part = _correlate(gp[..., ch:, cw:],
                                      wt[..., th, tw].reshape(groups, cg, -1),
                                      (nh, nw, 1, 1, eh, ew, mh, mw))
                    if dx is None:
                        dx = part
                    else:
                        dx[..., rh::sh, rw::sw] = part
        return dx, gw

    return Tensor._make(out, (x, w), vjp)


def max_pool2d(x: Tensor, kernel: int = 3, stride=1, padding: int = 1) -> Tensor:
    """Max pooling; padded cells never win (they are filled with -inf). A
    window's gradient goes to its first tap, in (i, j) order, that holds
    the maximum; backward pads x.data again to find that tap."""
    x = as_tensor(x)
    sh, sw = _pair(stride)
    c, h, wd = x.shape[1:]
    geom = _geometry("max_pool2d", (h, wd), (kernel, kernel), (sh, sw),
                     (padding, padding), pool=True)
    out = _tap_reduce(np.maximum, _pad(x.data, padding, padding, -np.inf), geom)

    def vjp(g):
        xp = _pad(x.data, padding, padding, -np.inf)
        # each window's first maximal tap: scan the taps backwards and set
        # first = k wherever tap k holds the maximum (an integer step, not
        # a masked write), so the earliest such tap is the one left
        first = np.zeros(out.shape, np.min_scalar_type(kernel * kernel - 1))
        hit = np.empty(out.shape, dtype=bool)
        for k, view in reversed(list(enumerate(_taps(xp, *geom)))):
            first -= (first - k) * np.equal(view, out, out=hit)
        # the padded map's flat index of that tap; np.bincount adds the
        # windows' gradients there in window order
        bi, ci, hi, wi = np.indices(out.shape, sparse=True)
        lin = (((bi * c + ci) * xp.shape[2] + hi * sh + first // kernel)
               * xp.shape[3] + wi * sw + first % kernel)
        dxp = np.bincount(lin.ravel(), np.ravel(g), xp.size).reshape(xp.shape)
        return (dxp[:, :, padding:padding + h, padding:padding + wd],)

    return Tensor._make(out, (x,), vjp)


def avg_pool2d(x: Tensor, kernel: int = 3, stride=1, padding: int = 1) -> Tensor:
    """Average pooling; padded cells are excluded from each window's count."""
    x = as_tensor(x)
    h, wd = x.shape[2:]
    geom = _geometry("avg_pool2d", (h, wd), (kernel, kernel), _pair(stride),
                     (padding, padding), pool=True)
    counts = _tap_reduce(np.add, _pad(np.ones((h, wd)), padding, padding), geom)
    out = _tap_reduce(np.add, _pad(x.data, padding, padding), geom)
    out /= counts

    def vjp(g):
        gd = g / counts
        dxp = np.zeros((*x.shape[:2], h + 2 * padding, wd + 2 * padding))
        for dview in _taps(dxp, *geom):
            dview += gd
        return (dxp[:, :, padding:padding + h, padding:padding + wd],)

    return Tensor._make(out, (x,), vjp)


def _dot_over(a: np.ndarray, b: np.ndarray, axes: tuple) -> np.ndarray:
    """sum(a * b) over `axes`, kept as size-1 axes, in one pass."""
    dims = list(range(a.ndim))
    return np.expand_dims(np.einsum(
        a, dims, b, dims, [k for k in dims if k not in axes]), axes)


def _norm(h: np.ndarray, parents: tuple, vjp, own: bool, axes: tuple,
          gamma, beta, stats, eps: float):
    """The norm of array h over `axes` as one node (see batch_norm). h came
    from `parents` through `vjp`, which maps a gradient at h to one per
    parent; the node overwrites h when it owns it."""
    back = None
    if stats is None:   # m = x̂, then y = m·γ + β
        mean = h.mean(axis=axes, keepdims=True)
        m = np.subtract(h, mean, out=h if own else None)
        n = h.size // mean.size
        var = _dot_over(m, m, axes) / n
        inv = 1.0 / np.sqrt(var + eps)
        m *= inv
        a, b = gamma, beta

        def back(g):
            gm = g.mean(axis=axes, keepdims=True)
            gx = _dot_over(g, m, axes) / n
            dx = g - m * gx
            dx -= gm
            dx *= inv
            return dx
    else:               # m = h, then y = m·scale + shift
        m, (mean, var) = h, stats
        a = Tensor(1.0 / np.sqrt(var + eps))
        if gamma is not None:
            a = a * gamma
        b = Tensor(-mean) * a
        if beta is not None:
            b = b + beta
    y, extra = m, ()
    if a is not None:
        # m stays for a's gradient or the norm's backward; else y takes it
        free = own and back is None and not a.requires_grad
        y = np.multiply(m, a.data, out=m if free else None)
        y += b.data
        extra = (a, b)
    upstream = any(p.requires_grad for p in parents)

    def node_vjp(g):
        grads = ()
        if extra:
            grads = (_unbroadcast(g * m, a.shape) if a.requires_grad else None,
                     _unbroadcast(g, b.shape) if b.requires_grad else None)
            g = g * a.data
        if not upstream:
            return (None,) * len(parents) + grads
        return (*vjp(g if back is None else back(g)), *grads)

    return Tensor._make(y, parents + extra, node_vjp), mean, var


def batch_norm(x: Tensor, axes: tuple, eps: float = 1e-5, *,
               gamma: Tensor | None = None, beta: Tensor | None = None,
               stats=None):
    """Normalize x over `axes` as one node; x's array is read, never
    written. Returns (y, mean, var).

    With stats None (training), y = x̂·γ + β, where x̂ is x at zero mean and
    unit biased variance over `axes`, and the returned mean and variance
    are the batch's; the node keeps x̂ and, with γ/β, y. With stats =
    (mean, var) (eval), y = x·scale + shift with scale = γ/sqrt(var + eps)
    and shift = β − mean·scale, built as small nodes of the statistics'
    shape. γ and β are optional tensors of that shape, both or neither.
    The caller owns running-statistic bookkeeping.
    """
    x = as_tensor(x)
    axes = tuple(a % x.ndim for a in axes)
    return _norm(x.data, (x,), lambda g: (g,), False, axes, gamma, beta,
                 stats, eps)


def conv2d_norm(x: Tensor, w: Tensor, stride=1, padding=0, dilation=1,
                groups: int = 1, *, gamma: Tensor | None = None,
                beta: Tensor | None = None, stats=None, eps: float = 1e-5):
    """conv2d(x, w, ...), then batch_norm of its output over (B, H, W), as
    one node. Returns (y, mean, var). The node normalizes the conv's fresh
    output h in place, and its vjp runs the norm's backward, then conv2d's.
    No pre-norm map and no scaled copy stays in the graph: in training the
    node keeps x̂ and, with γ/β, y; in eval it scales and shifts h in
    place and keeps h only when the scale needs a gradient.
    """
    h = conv2d(x, w, stride, padding, dilation, groups)
    # the conv node itself is dropped: the norm's node takes its output
    # array, parents and vjp
    return _norm(h.data, h._parents, h._vjp, True, (0, 2, 3), gamma, beta,
                 stats, eps)


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
