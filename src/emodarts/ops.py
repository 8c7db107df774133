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
from .tensor import (Tensor, avg_pool2d, batch_norm, conv2d, max_pool2d,
                     relu, softmax, stack, tanh)

__all__ = [
    "CNN_OPS", "SEQNN_OPS", "Module", "BatchNorm2d", "Linear", "ReLUConvNorm",
    "RecurrentLayer", "AdditiveAttention", "rnn_seq", "lstm_seq",
    "build_cnn_op", "build_seq_op", "count_params", "PASSIVE_OPS",
    "run_candidates",
]

_CNN_TABLE = {
    "max_pool_3x3": lambda c, s, rng, affine: _PoolOp("max", s),
    "avg_pool_3x3": lambda c, s, rng, affine: _PoolOp("avg", s),
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

    def params(self) -> list[Tensor]:
        out = []
        for v in self._members():
            if isinstance(v, Tensor) and v.requires_grad:
                out.append(v)
            elif isinstance(v, Module):
                out.extend(v.params())
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
    estimates (momentum 0.1, biased variance); eval mode applies the
    running estimates. The affine scale/shift is optional: search-time
    supernets run with it disabled, derived models enable it.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, affine: bool):
        self.affine = bool(affine)
        if self.affine:
            self.gamma = Tensor(np.ones((1, channels, 1, 1)), requires_grad=True)
            self.beta = Tensor(np.zeros((1, channels, 1, 1)), requires_grad=True)
        self.running_mean = np.zeros((1, channels, 1, 1))
        self.running_var = np.ones((1, channels, 1, 1))

    def buffers(self):
        return [self.running_mean, self.running_var]

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            y, mean, var = batch_norm(x, axes=(0, 2, 3), eps=self.eps)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            y = (x - Tensor(self.running_mean)) * Tensor(inv)
        if self.affine:
            y = y * self.gamma + self.beta
        return y


class Linear(Module):
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.weight = _uniform(rng, (fan_in, fan_out), fan_in)
        self.bias = _uniform(rng, (fan_out,), fan_in)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


# ---- CNN candidate ops ----

class _PoolOp(Module):
    def __init__(self, mode: str, stride: int):
        self.mode = mode
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        pool = max_pool2d if self.mode == "max" else avg_pool2d
        return pool(x, kernel=3, stride=self.stride, padding=1)


class ReLUConvNorm(Module):
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

    def forward(self, x: Tensor) -> Tensor:
        h = conv2d(relu(x), self.weight, stride=self.stride, padding=self.pad,
                   dilation=self.dilation)
        return self.norm(h)


class SepConv(Module):
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

    def forward(self, x: Tensor) -> Tensor:
        for dw, pw, norm, s in zip(self.depthwise, self.pointwise,
                                   self.norms, self.strides):
            x = conv2d(relu(x), dw, stride=s,
                       padding=kernel_pad(self.kernel), groups=self.channels)
            x = norm(conv2d(x, pw))
        return x


class Conv7x1_1x7(Module):
    """ReLU, 7x1 convolution, 1x7 convolution, norm. A strided edge splits
    the stride across the two passes: (s, 1) then (1, s)."""

    def __init__(self, channels: int, stride: int, rng: np.random.Generator,
                 affine: bool):
        self.stride = stride
        self.w_col = _uniform(rng, (channels, channels, 7, 1), channels * 7)
        self.w_row = _uniform(rng, (channels, channels, 1, 7), channels * 7)
        self.norm = BatchNorm2d(channels, affine)

    def forward(self, x: Tensor) -> Tensor:
        h = conv2d(relu(x), self.w_col, stride=(self.stride, 1), padding=(3, 0))
        h = conv2d(h, self.w_row, stride=(1, self.stride), padding=(0, 3))
        return self.norm(h)


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
    (also the SeqNN none); gradients stop here."""

    def __init__(self, stride: int):
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        s = self.stride
        return Tensor(np.zeros(x.data[..., ::s, ::s].shape))


def kernel_pad(kernel: int, dilation: int = 1) -> int:
    """Padding that keeps the spatial size at stride 1."""
    return dilation * (kernel - 1) // 2


# ---- SeqNN candidate ops ----

def _recurrence(cell: str, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The frame both recurrences share; `cell` keys _RECURRENT_TABLE.
    w is (K, F+H, G*H) and b (K, G*H) for K layers in lockstep; x is
    (B, T, F), shared by all K, or (K, B, T, F); the output (K, B, T, H).
    A 2-D w and 1-D b are the single-layer case, output (B, T, H).

    The input projection x @ W_x + b runs as one GEMM over all steps
    before the cell's time loop, and dx, dW and db as GEMMs after it, all
    over rows in (t, b) order. `loop(xz, wh)` gets the projection
    (K, T, B, G*H) and the state weights (K, H, G*H), and returns the
    output and back(g), which maps the output's gradient, made time-major
    (T, K, B, H), to the one at the gate pre-activations (K, T, B, G*H).
    Only parents with requires_grad get a gradient."""
    gates, loop = _RECURRENT_TABLE[cell]
    xd, wd, bd = x.data, w.data, b.data
    single = wd.ndim == 2
    if single:
        wd, bd = wd[None], bd[None]
    shared = xd.ndim == 3
    fits = (wd.ndim == 3 and bd.shape == (wd.shape[0], wd.shape[2])
            and (shared or (xd.ndim == 4 and not single
                            and xd.shape[0] == wd.shape[0])))
    if fits:
        k, rows, cols = wd.shape
        hid, feat = cols // gates, xd.shape[-1]
        fits = hid > 0 and cols == gates * hid and rows == feat + hid
    if not fits:
        raise ContractViolation(
            f"{cell}_seq weight {w.shape} and bias {b.shape} do not match "
            f"input {x.shape}")
    bsz, tlen = xd.shape[-3:-1]
    x2 = np.swapaxes(xd, -3, -2).reshape(*xd.shape[:-3], tlen * bsz, feat)
    wx, wh = wd[:, :feat], np.ascontiguousarray(wd[:, feat:])
    xz = x2 @ wx
    xz += bd[:, None]
    hs, back = loop(xz.reshape(k, tlen, bsz, cols), wh)

    def vjp(g):
        g = g[None] if single else g
        dz = back(np.ascontiguousarray(g.transpose(2, 0, 1, 3)))
        dz = dz.reshape(k, tlen * bsz, cols)
        dx = dw = db = None
        if x.requires_grad:
            dx = dz @ wx.transpose(0, 2, 1)
            dx = (dx.sum(axis=0) if shared else dx).reshape(
                *xd.shape[:-3], tlen, bsz, feat)
            dx = np.swapaxes(dx, -3, -2)
        if w.requires_grad:
            dw = np.empty((k, rows, cols))
            dw[:, :feat] = np.swapaxes(x2, -1, -2) @ dz
            # h_{t-1} meets dz_t; h_{-1} = 0
            hprev = np.ascontiguousarray(hs[:, :, :-1].swapaxes(1, 2))
            dw[:, feat:] = (hprev.reshape(k, -1, hid).transpose(0, 2, 1)
                            @ dz[:, bsz:])
            dw = dw.reshape(w.shape)
        if b.requires_grad:
            db = dz.sum(axis=1).reshape(b.shape)
        return dx, dw, db

    return Tensor._make(hs[0] if single else hs, (x, w, b), vjp)


def _rnn_loop(xz, wh):
    # h_t = tanh(z_t); hs is the (K, B, T, H) output
    k, tlen, bsz, hid = xz.shape
    hs = np.empty((k, bsz, tlen, hid))
    for t in range(tlen):
        z = xz[:, t] + hs[:, :, t - 1] @ wh if t else xz[:, 0]
        np.tanh(z, out=hs[:, :, t])

    def back(g):
        whT = wh.transpose(0, 2, 1)
        dz = np.empty((k, tlen, bsz, hid))
        dh = np.zeros((k, bsz, hid))
        for t in range(tlen - 1, -1, -1):
            h = hs[:, :, t]
            dh = np.multiply(1.0 - h * h, g[t] + dh, out=dz[:, t]) @ whT
        return dz

    return hs, back


def _lstm_loop(xz, wh):
    # gate order input, forget, cell, output; zero initial state; hs is
    # the (K, B, T, H) output. Gate values and cell states are kept
    # time-major, so that backward reads one contiguous block per step.
    k, tlen, bsz, cols = xz.shape
    hid = cols // 4
    cell = slice(2 * hid, 3 * hid)
    acts = np.empty((tlen, k, bsz, cols))      # gate values
    cs = np.empty((tlen, k, bsz, hid))
    tcs = np.empty_like(cs)
    hs = np.empty((k, bsz, tlen, hid))
    c = np.zeros((k, bsz, hid))
    for t in range(tlen):
        a = np.add(xz[:, t], hs[:, :, t - 1] @ wh if t else 0.0, out=acts[t])
        gc = np.tanh(a[..., cell])
        a[:] = 1.0 / (1.0 + np.exp(-a))     # one sigmoid over all gates
        a[..., cell] = gc
        c = np.add(a[..., hid:2 * hid] * c, a[..., :hid] * gc, out=cs[t])
        np.multiply(a[..., 3 * hid:], np.tanh(c, out=tcs[t]), out=hs[:, :, t])

    def back(g):
        whT = wh.transpose(0, 2, 1)
        dz = np.empty((k, tlen, bsz, cols))
        d = np.empty((k, bsz, cols))
        dh = np.zeros((k, bsz, hid))
        dc = np.zeros((k, bsz, hid))
        for t in range(tlen - 1, -1, -1):
            a, tc = acts[t], tcs[t]
            gi, gf, gc, go = (a[..., n * hid:(n + 1) * hid] for n in range(4))
            dht = g[t] + dh
            dc += dht * go * (1.0 - tc * tc)
            # each gate's gradient at its activation, then through it
            np.multiply(dc, gc, out=d[..., :hid])
            np.multiply(dc, cs[t - 1] if t else 0.0, out=d[..., hid:2 * hid])
            np.multiply(dc, gi, out=d[..., cell])
            np.multiply(dht, tc, out=d[..., 3 * hid:])
            slope = a * (1.0 - a)
            slope[..., cell] = 1.0 - gc * gc
            dh = np.multiply(d, slope, out=dz[:, t]) @ whT
            dc *= gf
        return dz

    return hs, back


# cell type -> (gate count, time loop)
_RECURRENT_TABLE = {"lstm": (4, _lstm_loop), "rnn": (1, _rnn_loop)}


def rnn_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional tanh recurrence with combined input+state weight
    (F+H, H) and bias (H,), or K of them in lockstep (see _recurrence).
    Backward is truncation-free backpropagation through time in one graph
    node."""
    return _recurrence("rnn", x, w, b)


def lstm_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional LSTM with combined weight (F+H, 4H) and a single
    combined bias (4H,), gate order input, forget, cell, output, or K of
    them in lockstep (see _recurrence)."""
    return _recurrence("lstm", x, w, b)


class RecurrentLayer(Module):
    """One lstm_seq or rnn_seq layer, by `cell`, with its weight and bias."""

    def __init__(self, cell: str, feat: int, hidden: int,
                 rng: np.random.Generator):
        self.cell = cell
        cols = _RECURRENT_TABLE[cell][0] * hidden
        self.weight = _uniform(rng, (feat + hidden, cols), feat + hidden)
        self.bias = _uniform(rng, (cols,), feat + hidden)

    def forward(self, x: Tensor) -> Tensor:
        return _recurrence(self.cell, x, self.weight, self.bias)


class AdditiveAttention(Module):
    """Shape-preserving temporal attention: scores e_t = v.tanh(W h_t + b),
    weights a = softmax(e) over time, output T * a_t * h_t. The factor T
    keeps the average output magnitude comparable to the input, so the op
    re-weights rather than shrinks the sequence."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        self.proj = Linear(hidden, hidden, rng)
        self.v = _uniform(rng, (hidden, 1), hidden)

    def scores(self, h: Tensor) -> Tensor:
        e = tanh(self.proj(h)) @ self.v   # (B, T, 1)
        return softmax(e, axis=1)

    def forward(self, h: Tensor) -> Tensor:
        return self.scores(h) * h * float(h.shape[1])


class RecurrentStack(Module):
    """i stacked recurrent layers, optionally topped with attention."""

    def __init__(self, cell: str, depth: int, feat: int, hidden: int,
                 rng: np.random.Generator, attention: bool):
        self.cell = cell
        self.layers = [RecurrentLayer(cell, feat if i == 0 else hidden,
                                      hidden, rng) for i in range(depth)]
        self.attention = AdditiveAttention(hidden, rng) if attention else None

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return self.top(x)

    def top(self, x: Tensor) -> Tensor:
        """What follows the last recurrent layer: attention, if any."""
        return x if self.attention is None else self.attention(x)


def run_candidates(ops, x: Tensor) -> list[Tensor]:
    """[op(x) for op in ops], except that the RecurrentStacks of one cell
    type run in lockstep: layer l of every stack at least l+1 deep is one
    recurrence node over the stacked layer-l weights. Stacks go deepest
    first, so layer l+1's input is a prefix of layer l's output."""
    outs = {}
    for cell in _RECURRENT_TABLE:
        live = sorted((k for k, op in enumerate(ops)
                       if isinstance(op, RecurrentStack) and op.cell == cell),
                      key=lambda k: -len(ops[k].layers))
        h, depth = x, 0
        while live:
            layers = [ops[k].layers[depth] for k in live]
            h = _recurrence(cell, h, stack([layer.weight for layer in layers]),
                            stack([layer.bias for layer in layers]))
            depth += 1
            for pos, k in enumerate(live):
                if len(ops[k].layers) == depth:
                    outs[k] = ops[k].top(h[pos])
            live = [k for k in live if len(ops[k].layers) > depth]
            if len(live) < h.shape[0]:
                h = h[:len(live)]
    return [outs[k] if k in outs else op(x) for k, op in enumerate(ops)]


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
