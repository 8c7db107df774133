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
from .tensor import (Tensor, _out_size, avg_pool2d, batch_norm, conv2d,
                     max_pool2d, relu, softmax, tanh)

__all__ = [
    "CNN_OPS", "SEQNN_OPS", "Module", "BatchNorm2d", "Linear",
    "AdditiveAttention", "rnn_seq", "lstm_seq", "build_cnn_op",
    "build_seq_op", "count_params", "PASSIVE_OPS",
]

_CNN_TABLE = {
    "max_pool_3x3": lambda c, s, rng, affine: _PoolOp("max", s),
    "avg_pool_3x3": lambda c, s, rng, affine: _PoolOp("avg", s),
    "dil_conv_3x3": lambda c, s, rng, affine: DilConv(c, 3, s, rng, affine),
    "dil_conv_5x5": lambda c, s, rng, affine: DilConv(c, 5, s, rng, affine),
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


class DilConv(Module):
    """ReLU, dense kxk convolution with dilation 2, norm."""

    def __init__(self, channels: int, kernel: int, stride: int,
                 rng: np.random.Generator, affine: bool):
        self.kernel = kernel
        self.stride = stride
        self.weight = _uniform(rng, (channels, channels, kernel, kernel),
                               channels * kernel * kernel)
        self.norm = BatchNorm2d(channels, affine)

    def forward(self, x: Tensor) -> Tensor:
        h = conv2d(relu(x), self.weight, stride=self.stride,
                   padding=kernel_pad(self.kernel, dilation=2), dilation=2)
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
    """Identity; on a reduction edge it subsamples every second row and
    column, keeping the op parameter-free."""

    def __init__(self, stride: int):
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        if self.stride == 1:
            return x
        return x[:, :, ::self.stride, ::self.stride]


class NoneOp(Module):
    """Constant zeros of the post-stride shape; gradients stop here."""

    def __init__(self, stride: int):
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        s = self.stride
        return Tensor(np.zeros((b, c, _out_size(h, 1, s), _out_size(w, 1, s))))


def kernel_pad(kernel: int, dilation: int = 1) -> int:
    """Padding that keeps the spatial size at stride 1."""
    return dilation * (kernel - 1) // 2


# ---- SeqNN candidate ops ----

def rnn_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional tanh recurrence over (B, T, F) with combined
    input+state weight (F+H, H). Backward runs hand-written truncation-free
    backpropagation through time in one graph node."""
    xd, wd, bd = x.data, w.data, b.data
    bsz, tlen, feat = xd.shape
    hid = wd.shape[1]
    if wd.shape[0] != feat + hid:
        raise ContractViolation(
            f"rnn_seq weight {wd.shape} does not match input width {feat}")
    hs = np.zeros((bsz, tlen, hid))
    cats = np.empty((bsz, tlen, feat + hid))
    h = np.zeros((bsz, hid))
    for t in range(tlen):
        cat = np.concatenate([xd[:, t], h], axis=1)
        cats[:, t] = cat
        h = np.tanh(cat @ wd + bd)
        hs[:, t] = h

    def vjp(g):
        dx = np.zeros_like(xd)
        dw = np.zeros_like(wd)
        db = np.zeros_like(bd)
        dh = np.zeros((bsz, hid))
        for t in range(tlen - 1, -1, -1):
            dz = (g[:, t] + dh) * (1.0 - hs[:, t] ** 2)
            dw += cats[:, t].T @ dz
            db += dz.sum(axis=0)
            dcat = dz @ wd.T
            dx[:, t] = dcat[:, :feat]
            dh = dcat[:, feat:]
        return dx, dw, db

    return Tensor._make(hs, (x, w, b), vjp)


def lstm_seq(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Unidirectional LSTM over (B, T, F). Combined weight (F+H, 4H) and a
    single combined bias (4H,), gate order input, forget, cell, output."""
    xd, wd, bd = x.data, w.data, b.data
    bsz, tlen, feat = xd.shape
    hid = wd.shape[1] // 4
    if wd.shape[0] != feat + hid or wd.shape[1] != 4 * hid:
        raise ContractViolation(
            f"lstm_seq weight {wd.shape} does not match input width {feat}")

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    cats = np.empty((bsz, tlen, feat + hid))
    gi = np.empty((bsz, tlen, hid))
    gf = np.empty((bsz, tlen, hid))
    gc = np.empty((bsz, tlen, hid))
    go = np.empty((bsz, tlen, hid))
    cs = np.zeros((bsz, tlen, hid))
    tcs = np.empty((bsz, tlen, hid))
    hs = np.zeros((bsz, tlen, hid))
    h = np.zeros((bsz, hid))
    c = np.zeros((bsz, hid))
    for t in range(tlen):
        cat = np.concatenate([xd[:, t], h], axis=1)
        cats[:, t] = cat
        z = cat @ wd + bd
        gi[:, t] = sig(z[:, :hid])
        gf[:, t] = sig(z[:, hid:2 * hid])
        gc[:, t] = np.tanh(z[:, 2 * hid:3 * hid])
        go[:, t] = sig(z[:, 3 * hid:])
        c = gf[:, t] * c + gi[:, t] * gc[:, t]
        cs[:, t] = c
        tcs[:, t] = np.tanh(c)
        h = go[:, t] * tcs[:, t]
        hs[:, t] = h

    def vjp(g):
        dx = np.zeros_like(xd)
        dw = np.zeros_like(wd)
        db = np.zeros_like(bd)
        dh = np.zeros((bsz, hid))
        dc = np.zeros((bsz, hid))
        dz = np.empty((bsz, 4 * hid))
        for t in range(tlen - 1, -1, -1):
            dht = g[:, t] + dh
            c_prev = cs[:, t - 1] if t > 0 else np.zeros((bsz, hid))
            dct = dc + dht * go[:, t] * (1.0 - tcs[:, t] ** 2)
            dz[:, :hid] = dct * gc[:, t] * gi[:, t] * (1.0 - gi[:, t])
            dz[:, hid:2 * hid] = dct * c_prev * gf[:, t] * (1.0 - gf[:, t])
            dz[:, 2 * hid:3 * hid] = dct * gi[:, t] * (1.0 - gc[:, t] ** 2)
            dz[:, 3 * hid:] = dht * tcs[:, t] * go[:, t] * (1.0 - go[:, t])
            dc = dct * gf[:, t]
            dw += cats[:, t].T @ dz
            db += dz.sum(axis=0)
            dcat = dz @ wd.T
            dx[:, t] = dcat[:, :feat]
            dh = dcat[:, feat:]
        return dx, dw, db

    return Tensor._make(hs, (x, w, b), vjp)


class RNNLayer(Module):
    def __init__(self, feat: int, hidden: int, rng: np.random.Generator):
        self.weight = _uniform(rng, (feat + hidden, hidden), feat + hidden)
        self.bias = _uniform(rng, (hidden,), feat + hidden)

    def forward(self, x: Tensor) -> Tensor:
        return rnn_seq(x, self.weight, self.bias)


class LSTMLayer(Module):
    def __init__(self, feat: int, hidden: int, rng: np.random.Generator):
        self.weight = _uniform(rng, (feat + hidden, 4 * hidden), feat + hidden)
        self.bias = _uniform(rng, (4 * hidden,), feat + hidden)

    def forward(self, x: Tensor) -> Tensor:
        return lstm_seq(x, self.weight, self.bias)


class AdditiveAttention(Module):
    """Shape-preserving temporal attention: scores e_t = v.tanh(W h_t + b),
    weights a = softmax(e) over time, output T * a_t * h_t. The factor T
    keeps the average output magnitude comparable to the input, so the op
    re-weights rather than shrinks the sequence."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        self.weight = _uniform(rng, (hidden, hidden), hidden)
        self.bias = _uniform(rng, (hidden,), hidden)
        self.v = _uniform(rng, (hidden, 1), hidden)

    def scores(self, h: Tensor) -> Tensor:
        e = tanh(h @ self.weight + self.bias) @ self.v   # (B, T, 1)
        return softmax(e, axis=1)

    def forward(self, h: Tensor) -> Tensor:
        return self.scores(h) * h * float(h.shape[1])


class RecurrentStack(Module):
    """i stacked recurrent layers, optionally topped with attention."""

    def __init__(self, cell: str, depth: int, feat: int, hidden: int,
                 rng: np.random.Generator, attention: bool):
        layer = LSTMLayer if cell == "lstm" else RNNLayer
        self.layers = [layer(feat if i == 0 else hidden, hidden, rng)
                       for i in range(depth)]
        self.attention = AdditiveAttention(hidden, rng) if attention else None

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        if self.attention is not None:
            x = self.attention(x)
        return x


class SeqIdentity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class SeqNone(Module):
    def forward(self, x: Tensor) -> Tensor:
        return Tensor(np.zeros(x.shape))


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
        return SeqIdentity()
    if name == "none":
        return SeqNone()
    if name not in SEQNN_OPS:
        raise ContractViolation(f"unknown SeqNN op {name!r}")
    cell, *att, depth = name.split("_")
    return RecurrentStack(cell, int(depth), feat, hidden, rng,
                          attention=bool(att))
