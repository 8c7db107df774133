"""The macro chain and the one-shot search network.

Layout: a 3x3 stem lifts the single-channel spectrogram to the CNN working
width, C CNN cells follow (each fed the two previous cell outputs, with
reduction cells at floor(C/3) and floor(2C/3)), a flatten bridge turns the
CNN map into a sequence, N SeqNN cells refine it, and a mean over time plus
a dense layer produce class logits. `Backbone` builds and runs that chain;
the search network (`Supernet`) and the derived models differ only in
their cells: search-form `Cell`s called with their kind's coefficient
table, or discrete `Cell`s called with none.

Architecture coefficients live in the search network, one table per cell
kind that actually exists (normal CNN, reduction CNN, SeqNN), shared by
all cells of that kind. They are kept out of params() so the two
optimizer groups cannot overlap.
"""

from __future__ import annotations

import numpy as np

from .cell import Cell, augment_scope, component_key, num_edges
from .config import SearchConfig
from .errors import ContractViolation
from .ops import (CNN_OPS, BatchNorm2d, Linear, Module, ReLUConvNorm,
                  _uniform)
from .tensor import (Tensor, _out_size, concat, conv2d, cross_entropy, relu,
                     softmax)

__all__ = ["Backbone", "Supernet", "build_supernet", "flatten_bridge",
           "reduction_positions", "Stem", "FactorizedReduce"]


def reduction_positions(c: int) -> set[int]:
    """Reduction cells sit a third and two thirds of the way in."""
    return {c // 3, (2 * c) // 3} if c > 0 else set()


def flatten_bridge(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, T, F) with T = H and F = C * W.

    Rows of the spatial map become time steps; each step carries all
    channels of its row. The mel spectrogram puts time on the width axis
    upstream, but after the stem and reductions the H axis is the longer
    one and serves as the sequence axis.
    """
    if x.ndim != 4:
        raise ContractViolation(f"flatten_bridge expects 4-D input, got {x.shape}")
    b, c, h, w = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, h, c * w)


class Stem(Module):
    """3x3 convolution from 1 channel to the working width, then norm."""

    def __init__(self, channels: int, rng: np.random.Generator, affine: bool):
        self.weight = _uniform(rng, (channels, 1, 3, 3), 9)
        self.norm = BatchNorm2d(channels, affine)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm.conv(x, self.weight, padding=1)


class FactorizedReduce(Module):
    """Halve the spatial size without losing pixels: two offset stride-2
    pointwise convs, concatenated along channels, then norm."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 affine: bool):
        c1 = cout // 2
        self.w1 = _uniform(rng, (c1, cin, 1, 1), cin)
        self.w2 = _uniform(rng, (cout - c1, cin, 1, 1), cin)
        self.norm = BatchNorm2d(cout, affine)

    def forward(self, x: Tensor) -> Tensor:
        x = relu(x)
        a = conv2d(x, self.w1, stride=2)
        b = conv2d(x[:, :, 1:, 1:], self.w2, stride=2)
        return self.norm(concat([a, b], axis=1))


class Backbone(Module):
    """Stem, CNN chain, flatten bridge, SeqNN chain and head.

    A subclass sets what its cell factories need, then calls this
    constructor, which draws from `rng` in the order stem, CNN chain,
    `_init_arch`, SeqNN chain, head. The subclass supplies the cells
    (`_cell`); `_init_arch` may fill `_alphas`, and each cell is called
    with the table of its component key, or None when there is none.
    Attribute order fixes the order of params().
    """

    def __init__(self, c_cells: int, n_cells: int, b_cnn: int, channels: int,
                 hidden: int, classes: int, input_hw, rng: np.random.Generator,
                 affine: bool):
        self.input_hw = tuple(int(v) for v in input_hw)
        if len(self.input_hw) != 2 or min(self.input_hw) < 1:
            raise ContractViolation(f"input_hw must be (H, W), got {input_hw}")
        h, w = self.input_hw
        self._alphas: dict[str, Tensor] = {}   # a dict stays out of params()
        self.stem = Stem(channels, rng, affine)
        self.cnn_pre0: list[Module] = []
        self.cnn_pre1: list[Module] = []
        self.cnn_cells: list[Module] = []
        reductions = reduction_positions(c_cells)
        cpp = cp = channels
        for k in range(c_cells):
            red = k in reductions
            # after a reduction, the older input still has the larger map
            pre0 = FactorizedReduce if k - 1 in reductions else ReLUConvNorm
            self.cnn_pre0.append(pre0(cpp, channels, rng, affine))
            self.cnn_pre1.append(ReLUConvNorm(cp, channels, rng, affine))
            self.cnn_cells.append(self._cell("cnn", red, rng))
            cpp, cp = cp, b_cnn * channels
            if red:
                if k + 1 < c_cells and (h % 2 or w % 2):
                    # the next cell's FactorizedReduce halves this map
                    raise ContractViolation(
                        f"input_hw {self.input_hw} gives an odd {h}x{w} map "
                        f"at reduction cell {k}; the cell after it cannot "
                        f"halve an odd side")
                h, w = _out_size(h, 1, 2), _out_size(w, 1, 2)
        self._init_arch(rng)

        self.seq_pre0: list[Module] = []
        self.seq_pre1: list[Module] = []
        self.seq_cells: list[Module] = []
        wpp = wp = cp * w
        for _ in range(n_cells):
            self.seq_pre0.append(Linear(wpp, hidden, rng))
            self.seq_pre1.append(Linear(wp, hidden, rng))
            self.seq_cells.append(self._cell("seqnn", False, rng))
            wpp, wp = wp, hidden
        self.head = Linear(wp, classes, rng)

    def _init_arch(self, rng: np.random.Generator) -> None:
        """Draws made between the CNN and SeqNN chains; none by default."""

    def pooled(self, x: Tensor) -> Tensor:
        """The chain up to the time-averaged SeqNN output."""
        if x.ndim != 4 or x.shape[1:] != (1,) + self.input_hw:
            raise ContractViolation(
                f"{type(self).__name__} expects (B, 1, {self.input_hw[0]}, "
                f"{self.input_hw[1]}) input, got {x.shape}")

        def table(cell):
            return self._alphas.get(component_key(cell.kind, cell.reduction))

        s0 = s1 = self.stem(x)
        for pre0, pre1, cell in zip(self.cnn_pre0, self.cnn_pre1, self.cnn_cells):
            s0, s1 = s1, cell([pre0(s0), pre1(s1)], table(cell))
        q0 = q1 = flatten_bridge(s1)
        for pre0, pre1, cell in zip(self.seq_pre0, self.seq_pre1, self.seq_cells):
            q0, q1 = q1, cell([pre0(q0), pre1(q1)], table(cell))
        return q1.mean(axis=1)

    def forward_logits(self, x: Tensor) -> Tensor:
        return self.head(self.pooled(x))

    def forward(self, x: Tensor) -> Tensor:
        """Class probabilities; use forward_logits with cross_entropy for
        training."""
        return softmax(self.forward_logits(x), axis=-1)


class Supernet(Backbone):
    def __init__(self, config: SearchConfig, rng: np.random.Generator,
                 input_hw: tuple[int, int]):
        config.validate()
        self.config = config
        self.seq_scope = augment_scope(config.seq_scope)
        super().__init__(config.C, config.N, config.B_cnn, config.channels,
                         config.hidden, config.classes, input_hw, rng,
                         affine=False)   # search runs with affine norms off

    def _cell(self, kind: str, reduction: bool,
              rng: np.random.Generator) -> Cell:
        cfg = self.config
        if kind == "cnn":
            return Cell(kind, CNN_OPS, cfg.channels, cfg.B_cnn, reduction, rng)
        return Cell(kind, self.seq_scope, cfg.hidden, cfg.B_seqnn, False, rng)

    def _init_arch(self, rng: np.random.Generator) -> None:
        # one table per existing cell kind
        cfg = self.config
        kinds = {cell.reduction for cell in self.cnn_cells}
        tables = [("cnn_normal", False in kinds, cfg.B_cnn, len(CNN_OPS)),
                  ("cnn_reduce", True in kinds, cfg.B_cnn, len(CNN_OPS)),
                  ("seqnn", cfg.N > 0, cfg.B_seqnn, len(self.seq_scope))]
        self._alphas.update(
            (key, Tensor(rng.normal(0.0, 1e-3, (num_edges(b), n_ops)),
                         requires_grad=True))
            for key, present, b, n_ops in tables if present)

    # ---- alpha access ----

    def alpha(self, kind: str) -> Tensor | None:
        return self._alphas.get(kind)

    def arch_params(self) -> list[Tensor]:
        return [self._alphas[k] for k in ("cnn_normal", "cnn_reduce", "seqnn")
                if k in self._alphas]

    def alpha_tables(self) -> dict[str, np.ndarray]:
        """Snapshot of the coefficient tables as plain arrays."""
        return {k: v.data.copy() for k, v in self._alphas.items()}

    def loss(self, x: Tensor, labels: np.ndarray) -> Tensor:
        return cross_entropy(self.forward_logits(x), labels)


def build_supernet(config: SearchConfig, rng: np.random.Generator,
                   input_hw: tuple[int, int]) -> Supernet:
    """Construct the search network for inputs of spatial size input_hw."""
    return Supernet(config, rng, input_hw)
