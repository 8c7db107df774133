"""Candidate operation catalog for CNN and SeqNN cells.

Every operation is a Module mapping one tensor to one tensor of compatible
shape: CNN ops map (B, C, H, W) to (B, C, H', W') where H' is H or H/2
depending on the edge stride, and SeqNN ops map (B, T, F) to (B, T, H).
`CNN_OPS` lists the keys of one name -> builder table. A `SEQNN_OPS` name is
"<cell>_<depth>" or "<cell>_att_<depth>": a recurrent stack, optionally
topped with attention. Every searchable scope also holds `PASSIVE_OPS`.
Catalog order is load-bearing: architecture coefficient vectors index into
these lists, and the lowest index wins ties at discretization time.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .tensor import (Tensor, _matmul_grads, _unbroadcast, avg_pool2d,
                     batch_norm, conv2d, conv2d_norm, max_pool2d, relu,
                     softmax, tanh)

__all__ = [
    "CNN_OPS", "SEQNN_OPS", "Module", "BatchNorm2d", "Linear", "ReLUConvNorm",
    "AdditiveAttention", "rnn_seq", "lstm_seq",
    "build_cnn_op", "build_seq_op", "count_params", "PASSIVE_OPS",
    "ReLUFirst", "run_op", "run_candidates",
]

_CNN_TABLE = {
    "max_pool_3x3": lambda c, s, rng, affine: _PoolOp(max_pool2d, s),
    "avg_pool_3x3": lambda c, s, rng, affine: _PoolOp(avg_pool2d, s),
    "dil_conv_3x3": lambda c, s, rng, affine: ReLUConvNorm(
        c, c, rng, affine, kernel=3, stride=s, dilation=2),
    "dil_conv_5x5": lambda c, s, rng, affine: ReLUConvNorm(
        c, c, rng, affine, kernel=5, stride=s, dilation=2),
    "sep_conv_3x3": lambda c, s, rng, affine: SepConv(c, 3, s, rng, affine),
    "sep_conv_5x5": lambda c, s, rng, affine: SepConv(c, 5, s, rng, affine),
    "conv_7x1_1x7": lambda c, s, rng, affine: Conv7x1_1x7(c, s, rng, affine),
    "skip_connect": lambda c, s, rng, affine: SkipConnect(s),
    "none": lambda c, s, rng, affine: NoneOp(s),
}
CNN_OPS = list(_CNN_TABLE)

SEQNN_OPS = [
    "lstm_1", "lstm_2", "lstm_3", "lstm_4", "lstm_att_1", "lstm_att_2",
    "rnn_1", "rnn_2", "rnn_3", "rnn_4", "rnn_att_1", "rnn_att_2",
]
PASSIVE_OPS = ("skip_connect", "none")


class Module:
    """Composition node with discoverable parameters and a train/eval flag.

    Parameters are found by walking instance attributes (and lists of them)
    in construction order, which fixes the declaration order used by
    checkpoint payloads.
    """

    training = True

    def _members(self):
        def walk(v):
            if isinstance(v, (list, tuple)):
                for item in v:
                    yield from walk(item)
            else:
                yield v

        for v in vars(self).values():
            yield from walk(v)

    def params(self, frozen: bool = False) -> list[Tensor]:
        """The parameter tensors that require a gradient, in declaration
        order; with frozen=True, every parameter tensor."""
        out = []
        for v in self._members():
            if isinstance(v, Tensor) and (frozen or v.requires_grad):
                out.append(v)
            elif isinstance(v, Module):
                out.extend(v.params(frozen))
        return out

    def buffers(self) -> list[np.ndarray]:
        out = []
        for v in self._members():
            if isinstance(v, Module):
                out.extend(v.buffers())
        return out

    def set_training(self, flag: bool) -> None:
        self.training = bool(flag)
        for v in self._members():
            if isinstance(v, Module):
                v.set_training(flag)

    def forward(self, *args):
        raise NotImplementedError

    def __call__(self, *args):
        return self.forward(*args)


def count_params(module: Module) -> int:
    """Number of trainable scalars; normalization buffers are excluded."""
    return sum(p.size for p in module.params())


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class BatchNorm2d(Module):
    """Per-channel normalization over (batch, height, width).

    Training mode normalizes with batch statistics and tracks running
    estimates (momentum 0.1, biased variance). Eval mode is one scale and
    shift per channel, `x * scale + shift`, with scale = γ/sqrt(running
    var + eps) and shift = β - running mean * scale. The affine γ/β is
    optional: search-time supernets run with it disabled, derived models
    enable it. `conv` fuses a convolution into the same graph node
    (`tensor.conv2d_norm`).
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, affine: bool):
        self.affine = bool(affine)
        self.gamma = self.beta = None
        if self.affine:
            self.gamma = Tensor(np.ones((1, channels, 1, 1)), requires_grad=True)
            self.beta = Tensor(np.zeros((1, channels, 1, 1)), requires_grad=True)
        self.running_mean = np.zeros((1, channels, 1, 1))
        self.running_var = np.ones((1, channels, 1, 1))

    def buffers(self):
        return [self.running_mean, self.running_var]

    def _apply(self, fn, *args, **kwargs) -> Tensor:
        y, mean, var = fn(*args, **kwargs, gamma=self.gamma, beta=self.beta,
                          eps=self.eps,
                          stats=None if self.training else
                          (self.running_mean, self.running_var))
        if self.training:
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        return y

    def forward(self, x: Tensor) -> Tensor:
        return self._apply(batch_norm, x, (0, 2, 3))

    def conv(self, x: Tensor, w: Tensor, **conv_args) -> Tensor:
        """This norm of conv2d(x, w, **conv_args), as one graph node."""
        return self._apply(conv2d_norm, x, w, **conv_args)


class Linear(Module):
    """x @ W + b as one node that keeps only its output: b is added in
    place, and the vjp is the add's, then the matmul's."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.weight = _uniform(rng, (fan_in, fan_out), fan_in)
        self.bias = _uniform(rng, (fan_out,), fan_in)

    def forward(self, x: Tensor) -> Tensor:
        w, b = self.weight, self.bias
        out = x.data @ w.data
        out += b.data
        return Tensor._make(out, (x, w, b), lambda g: (
            *_matmul_grads(x, w, g),
            _unbroadcast(g, b.shape) if b.requires_grad else None))


# ---- CNN candidate ops ----

class _PoolOp(Module):
    def __init__(self, pool, stride: int):
        self.pool = pool
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(x, kernel=3, stride=self.stride, padding=1)


class ReLUFirst(Module):
    """An op whose first step is a ReLU of its input. `rectified(r)` runs
    the rest on r = relu(x), so that a cell computes one ReLU per source
    node for every such op on the edges that leave it."""

    def forward(self, x: Tensor) -> Tensor:
        return self.rectified(relu(x))

    def rectified(self, r: Tensor) -> Tensor:
        raise NotImplementedError


class ReLUConvNorm(ReLUFirst):
    """ReLU, dense kxk convolution, norm: a dil_conv candidate (dilation 2)
    or, at the defaults, a cell's 1x1 projection adapter."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 affine: bool, kernel: int = 1, stride: int = 1,
                 dilation: int = 1):
        self.stride = stride
        self.dilation = dilation
        self.pad = kernel_pad(kernel, dilation)
        self.weight = _uniform(rng, (cout, cin, kernel, kernel),
                               cin * kernel * kernel)
        self.norm = BatchNorm2d(cout, affine)

    def rectified(self, r: Tensor) -> Tensor:
        return self.norm.conv(r, self.weight, stride=self.stride,
                              padding=self.pad, dilation=self.dilation)


class SepConv(ReLUFirst):
    """Two stacked (ReLU, depthwise kxk, pointwise 1x1, norm) blocks;
    the stride applies in the first block only."""

    def __init__(self, channels: int, kernel: int, stride: int,
                 rng: np.random.Generator, affine: bool):
        self.channels = channels
        self.kernel = kernel
        self.strides = (stride, 1)
        self.depthwise = [
            _uniform(rng, (channels, 1, kernel, kernel), kernel * kernel)
            for _ in range(2)]
        self.pointwise = [
            _uniform(rng, (channels, channels, 1, 1), channels)
            for _ in range(2)]
        self.norms = [BatchNorm2d(channels, affine) for _ in range(2)]

    def rectified(self, r: Tensor) -> Tensor:
        for k, (dw, pw, norm, s) in enumerate(zip(
                self.depthwise, self.pointwise, self.norms, self.strides)):
            h = conv2d(r if k == 0 else relu(r), dw, stride=s,
                       padding=kernel_pad(self.kernel), groups=self.channels)
            r = norm.conv(h, pw)
        return r


class Conv7x1_1x7(ReLUFirst):
    """ReLU, 7x1 convolution, 1x7 convolution, norm. A strided edge splits
    the stride across the two passes: (s, 1) then (1, s)."""

    def __init__(self, channels: int, stride: int, rng: np.random.Generator,
                 affine: bool):
        self.stride = stride
        self.w_col = _uniform(rng, (channels, channels, 7, 1), channels * 7)
        self.w_row = _uniform(rng, (channels, channels, 1, 7), channels * 7)
        self.norm = BatchNorm2d(channels, affine)

    def rectified(self, r: Tensor) -> Tensor:
        h = conv2d(r, self.w_col, stride=(self.stride, 1), padding=(3, 0))
        return self.norm.conv(h, self.w_row, stride=(1, self.stride),
                              padding=(0, 3))


class SkipConnect(Module):
    """Identity (also the SeqNN skip_connect); on a reduction edge it
    subsamples every second row and column, keeping the op parameter-free."""

    def __init__(self, stride: int):
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        if self.stride == 1:
            return x
        return x[:, :, ::self.stride, ::self.stride]


class NoneOp(Module):
    """Constant zeros of the post-stride shape, striding the last two axes
    (also the SeqNN none); gradients stop here. The zeros are one read-only
    broadcast scalar, not an allocated array."""

    def __init__(self, stride: int):
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        s = self.stride
        return Tensor(np.broadcast_to(0.0, x.data[..., ::s, ::s].shape))


def kernel_pad(kernel: int, dilation: int = 1) -> int:
    """Padding that keeps the spatial size at stride 1."""
    return dilation * (kernel - 1) // 2


# ---- SeqNN candidate ops ----

def _recurrence(cell: str, x: Tensor, ws: list, bs: list) -> Tensor:
    """The frame both recurrences share; `cell` keys _RECURRENT_TABLE.
    ws and bs are the K lockstep layers' (F+H, G*H) weight and (G*H,) bias
    tensors. K > 1 of them are stacked only as temporaries, in forward and
    again in backward, and K = 1 is a view; x is (B, T, F), shared by all
    K, or (K, B, T, F); the output (K, B, T, H).

    Per step runs only the recurrence: forward's state product h @ W_h
    and gates, and in backward what carries dh (and an LSTM's dc) to the
    step before. All else runs once per sequence: the input projection
    x @ W_x + b, one GEMM over all steps before the time loop; dx, dW and
    db, GEMMs after it, all over rows in (t, b) order; and in the loop's
    back, every value the carried gradient does not change. `loop(xz, wh)`
    gets the projection (K, T, B, G*H) and the state weights (K, H, G*H),
    and returns the output and back(g, wh), which, given the state weights
    again, maps the output's gradient (K, B, T, H), read a step at a time
    in place, to the one at the gate pre-activations (K, T, B, G*H). Only
    parents with requires_grad get a gradient."""
    gates, loop = _RECURRENT_TABLE[cell]

    def stacked(ts):    # (K, ...); a stacked copy is rebuilt, not kept
        return ts[0].data[None] if len(ts) == 1 else \
            np.stack([t.data for t in ts])

    xd = x.data
    try:
        wd, bd = stacked(ws), stacked(bs)
    except ValueError:    # no layers, or unequal shapes
        wd = bd = np.empty(0)
    shared = xd.ndim == 3
    fits = (wd.ndim == 3 and bd.shape == (wd.shape[0], wd.shape[2])
            and (shared or (xd.ndim == 4 and xd.shape[0] == wd.shape[0])))
    if fits:
        k, rows, cols = wd.shape
        hid, feat = cols // gates, xd.shape[-1]
        fits = hid > 0 and cols == gates * hid and rows == feat + hid
    if not fits:
        raise ContractViolation(
            f"{cell}_seq weights {[t.shape for t in ws]} and biases "
            f"{[t.shape for t in bs]} do not match input {x.shape}")
    bsz, tlen = xd.shape[-3:-1]

    def time_major():   # x as (t, b) rows; backward rebuilds it, not keeps it
        return np.swapaxes(xd, -3, -2).reshape(*xd.shape[:-3], tlen * bsz, feat)

    xz = time_major() @ wd[:, :feat]
    xz += bd[:, None]
    hs, back = loop(xz.reshape(k, tlen, bsz, cols),
                    np.ascontiguousarray(wd[:, feat:]))

    def vjp(g):
        wd = stacked(ws)
        wx, wh = wd[:, :feat], wd[:, feat:]
        # a K > 1 state block is copied contiguous again, not kept
        dz = back(g, np.ascontiguousarray(wh))
        dz = dz.reshape(k, tlen * bsz, cols)
        dx, dw, db = None, (None,) * k, (None,) * k
        if x.requires_grad:
            dx = dz @ wx.transpose(0, 2, 1)
            dx = (dx.sum(axis=0) if shared else dx).reshape(
                *xd.shape[:-3], tlen, bsz, feat)
            dx = np.swapaxes(dx, -3, -2)
        if any(t.requires_grad for t in ws):
            dw = np.empty((k, rows, cols))
            dw[:, :feat] = np.swapaxes(time_major(), -1, -2) @ dz
            # h_{t-1} meets dz_t; h_{-1} = 0
            hprev = np.ascontiguousarray(hs[:, :, :-1].swapaxes(1, 2))
            dw[:, feat:] = (hprev.reshape(k, -1, hid).transpose(0, 2, 1)
                            @ dz[:, bsz:])
        if any(t.requires_grad for t in bs):
            db = dz.sum(axis=1)
        return (dx, *dw, *db)

    return Tensor._make(hs, (x, *ws, *bs), vjp)


def _one_layer(cell: str, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One (B, T, F) -> (B, T, H) layer: the K = 1 lockstep case, its K
    axis dropped by a reshape, whose vjp copies nothing."""
    if x.ndim != 3:
        raise ContractViolation(f"{cell}_seq input {x.shape} is not (B, T, F)")
    h = _recurrence(cell, x, [w], [b])
    return h.reshape(h.shape[1:])


def _rnn_loop(xz, wh):
    """h_t = tanh(z_t); hs is the (K, B, T, H) output. Backward computes
    the slope 1 - h_t² of every step once, into dz; per step it then adds
    the carried dh to g_t, scales by the slope and maps through W_h."""
    k, tlen, bsz, hid = xz.shape
    hs = np.empty((k, bsz, tlen, hid))
    for t in range(tlen):
        z = xz[:, t] + hs[:, :, t - 1] @ wh if t else xz[:, 0]
        np.tanh(z, out=hs[:, :, t])

    def back(g, wh):
        whT, gs = wh.transpose(0, 2, 1), g.transpose(2, 0, 1, 3)
        dz = np.empty((k, tlen, bsz, hid))
        ht = hs.transpose(0, 2, 1, 3)
        np.subtract(1.0, np.multiply(ht, ht, out=dz), out=dz)     # 1 - h²
        dh = np.zeros((k, bsz, hid))
        for t in range(tlen - 1, -1, -1):
            dzt = dz[:, t]
            dh = np.multiply(dzt, gs[t] + dh, out=dzt) @ whT
        return dz

    return hs, back


def _lstm_loop(xz, wh):
    """Gate order input, forget, cell, output; zero initial state; hs is
    the (K, B, T, H) output. Gate values are kept time-major, one
    contiguous block per step. Forward takes the gate views once per
    sequence and writes each step's values into buffers allocated once per
    call, or into c and hs. Backward first computes, once per sequence,
    what the carried gradient does not change: the gate slopes a(1 - a)
    and 1 - g², into dz; the cell states, from the gate values with
    forward's own products; tanh(c) and 1 - tanh²(c). Its reverse loop
    then carries dh and dc: per step the four gate products, their product
    with the slopes, the map through W_h and the dc update. Each value is
    the expression a per-step loop uses, so the bits are the same."""
    k, tlen, bsz, cols = xz.shape
    hid = cols // 4
    cell = slice(2 * hid, 3 * hid)
    acts = np.empty((tlen, k, bsz, cols))      # gate values
    hs = np.empty((k, bsz, tlen, hid))
    a_i, a_f, a_g, a_o = (acts[..., :hid], acts[..., hid:2 * hid],
                          acts[..., cell], acts[..., 3 * hid:])
    c = np.zeros((k, bsz, hid))
    e, hw = np.empty((k, bsz, cols)), np.empty((k, bsz, cols))
    tg, tc = np.empty(c.shape), np.empty(c.shape)   # tanh(g), tanh(c)
    for t in range(tlen):
        a = np.add(xz[:, t], np.matmul(hs[:, :, t - 1], wh, out=hw)
                   if t else 0.0, out=acts[t])
        np.tanh(a_g[t], out=tg)
        np.exp(np.negative(a, out=e), out=e)    # one sigmoid over all gates,
        np.divide(1.0, np.add(e, 1.0, out=e), out=a)    # 1 / (1 + exp(-a))
        a_g[t] = tg
        np.multiply(a_f[t], c, out=c)           # c = f·c + i·g
        c += np.multiply(a_i[t], tg, out=tg)
        np.multiply(a_o[t], np.tanh(c, out=tc), out=hs[:, :, t])

    def back(g, wh):
        dz = np.empty((k, tlen, bsz, cols))
        av = acts.transpose(1, 0, 2, 3)
        np.multiply(av, np.subtract(1.0, av, out=dz), out=dz)   # a(1 - a)
        gcs, sc = av[..., cell], dz[..., cell]
        np.subtract(1.0, np.multiply(gcs, gcs, out=sc), out=sc)   # 1 - g²
        gi, gf, gc, go = (acts[..., n * hid:(n + 1) * hid] for n in range(4))
        cs = gi * gc                # c_t = i·g, then + f·c_{t-1}, where
        cs[0] += 0.0                # c_{-1} = 0.0 turns -0.0 into 0.0
        for t in range(1, tlen):
            cs[t] += gf[t] * cs[t - 1]
        tcs = np.tanh(cs)
        dtcs = np.multiply(tcs, tcs)
        np.subtract(1.0, dtcs, out=dtcs)        # 1 - tanh²(c)
        whT, gs = wh.transpose(0, 2, 1), g.transpose(2, 0, 1, 3)
        d = np.empty((k, bsz, cols))
        di, df, dg, do = (d[..., n * hid:(n + 1) * hid] for n in range(4))
        dh = np.zeros((k, bsz, hid))
        dc = np.zeros((k, bsz, hid))
        for t in range(tlen - 1, -1, -1):
            dht = gs[t] + dh
            dc += dht * go[t] * dtcs[t]
            # each gate's gradient at its activation, then through it
            np.multiply(dc, gc[t], out=di)
            np.multiply(dc, cs[t - 1] if t else 0.0, out=df)
            np.multiply(dc, gi[t], out=dg)
            np.multiply(dht, tcs[t], out=do)
            dzt = dz[:, t]
            dh = np.multiply(d, dzt, out=dzt) @ whT
            dc *= gf[t]
        return dz

    return hs, back


# cell type -> (gate count, time loop)
_RECURRENT_TABLE = {"lstm": (4, _lstm_loop), "rnn": (1, _rnn_loop)}


def rnn_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional tanh recurrence with combined input+state weight
    (F+H, H) and bias (H,), the K = 1 case of _recurrence. Backward is
    truncation-free backpropagation through time."""
    return _one_layer("rnn", x, w, b)


def lstm_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional LSTM with combined weight (F+H, 4H) and a single
    combined bias (4H,), gate order input, forget, cell, output: the K = 1
    case of _recurrence."""
    return _one_layer("lstm", x, w, b)


class AdditiveAttention(Module):
    """Shape-preserving temporal attention: scores e_t = v.tanh(W h_t + b),
    weights a = softmax(e) over time, output T * a_t * h_t. The factor T
    keeps the average output magnitude comparable to the input, so the op
    re-weights rather than shrinks the sequence."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        self.proj = Linear(hidden, hidden, rng)
        self.v = _uniform(rng, (hidden, 1), hidden)

    def scores(self, h: Tensor) -> Tensor:
        # tanh(h W + b) as one node: tanh's output, the projection's
        # parents, and tanh's vjp, then the projection's; the projection's
        # array is freed here, not kept until backward
        p = self.proj(h)
        t = tanh(p)
        back, tback = p._vjp, t._vjp
        e = Tensor._make(t.data, p._parents, lambda g: back(*tback(g)))
        return softmax(e @ self.v, axis=1)    # (B, T, 1)

    def forward(self, h: Tensor) -> Tensor:
        """a * h * T as one node whose vjp scales g by T first, as the
        two products it replaces did."""
        a, scale = self.scores(h), float(h.shape[1])
        out = a.data * h.data
        out *= scale

        def vjp(g):
            g = g * scale
            return (_unbroadcast(g * h.data, a.shape) if a.requires_grad
                    else None,
                    _unbroadcast(g * a.data, h.shape) if h.requires_grad
                    else None)

        return Tensor._make(out, (a, h), vjp)


class RecurrentStack(Module):
    """depth stacked lstm_seq or rnn_seq layers, by `cell`, optionally
    topped with attention. `layers` holds each layer's [weight, bias]:
    (F+H, G*H) and (G*H,), for G the cell's gate count."""

    def __init__(self, cell: str, depth: int, feat: int, hidden: int,
                 rng: np.random.Generator, attention: bool):
        self.cell = cell
        cols = _RECURRENT_TABLE[cell][0] * hidden
        self.layers = []
        for i in range(depth):
            fan_in = (feat if i == 0 else hidden) + hidden
            self.layers.append([_uniform(rng, (fan_in, cols), fan_in),
                                _uniform(rng, (cols,), fan_in)])
        self.attention = AdditiveAttention(hidden, rng) if attention else None

    def forward(self, x: Tensor) -> Tensor:
        for w, b in self.layers:
            x = _one_layer(self.cell, x, w, b)
        return self.top(x)

    def top(self, x: Tensor) -> Tensor:
        """What follows the last recurrent layer: attention, if any."""
        return x if self.attention is None else self.attention(x)


def run_op(op: Module, x: Tensor, r: Tensor | None = None) -> Tensor:
    """op(x); given r = relu(x), a ReLUFirst op reads r instead."""
    return op.rectified(r) if r is not None and isinstance(op, ReLUFirst) \
        else op(x)


def run_candidates(ops, x: Tensor, r: Tensor | None = None) -> list[Tensor]:
    """[run_op(op, x, r) for op in ops], except that the RecurrentStacks of
    one cell type run in lockstep: layer l of every stack at least l+1 deep
    is one recurrence node over the layer-l weights. Stacks go deepest
    first, so layer l+1's input is a prefix of layer l's output."""
    outs = {}
    for cell in _RECURRENT_TABLE:
        live = sorted((k for k, op in enumerate(ops)
                       if isinstance(op, RecurrentStack) and op.cell == cell),
                      key=lambda k: -len(ops[k].layers))
        h, depth = x, 0
        while live:
            ws, bs = zip(*(ops[k].layers[depth] for k in live))
            h = _recurrence(cell, h, ws, bs)
            depth += 1
            for pos, k in enumerate(live):
                if len(ops[k].layers) == depth:
                    outs[k] = ops[k].top(h[pos])
            live = [k for k in live if len(ops[k].layers) > depth]
            if len(live) < h.shape[0]:
                h = h[:len(live)]
    return [outs[k] if k in outs else run_op(op, x, r)
            for k, op in enumerate(ops)]


# ---- factories ----

def build_cnn_op(name: str, channels: int, stride: int,
                 rng: np.random.Generator, affine: bool = False) -> Module:
    if stride not in (1, 2):
        raise ContractViolation(f"unsupported stride {stride}")
    if name not in _CNN_TABLE:
        raise ContractViolation(f"unknown CNN op {name!r}")
    return _CNN_TABLE[name](channels, stride, rng, affine)


def build_seq_op(name: str, feat: int, hidden: int,
                 rng: np.random.Generator) -> Module:
    if name == "skip_connect":
        if feat != hidden:
            raise ContractViolation(
                f"sequence skip_connect needs feat == hidden, got {feat} != {hidden}")
        return SkipConnect(1)
    if name == "none":
        return NoneOp(1)
    if name not in SEQNN_OPS:
        raise ContractViolation(f"unknown SeqNN op {name!r}")
    cell, *att, depth = name.split("_")
    return RecurrentStack(cell, int(depth), feat, hidden, rng,
                          attention=bool(att))
