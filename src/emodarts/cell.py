"""Weight-sharing search cells.

A cell is a small DAG: `num_inputs` input nodes followed by B intermediate
nodes, with an edge from every earlier node to every intermediate node.
Each edge holds one instance of every candidate op in the scope, and its
output is the softmax(alpha)-weighted sum of all candidates. A node's
value is the sum of its incoming edge outputs. `eval_cell` runs that
graph for both the search cells here and the discrete cells of derived
models.

CNN cells concatenate the intermediate nodes along channels (output width
B * channels); SeqNN cells average them elementwise (width stays hidden).
Reduction cells apply stride 2, but only on edges whose source is an input
node; by then the spatial size has already been halved.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .ops import Module, build_cnn_op, build_seq_op
from .tensor import Tensor, concat, softmax, stack

__all__ = ["MixedEdge", "Cell", "eval_cell", "num_edges", "augment_scope",
           "discretize_edge"]


def num_edges(b: int, num_inputs: int = 2) -> int:
    """Edges in a cell with `b` intermediate nodes: every earlier node
    feeds every intermediate, so b*num_inputs + b*(b-1)/2."""
    return b * num_inputs + b * (b - 1) // 2


def augment_scope(scope) -> list[str]:
    """A searchable scope always contains skip_connect and none, appended
    after the caller's candidates when missing."""
    out = list(scope)
    for extra in ("skip_connect", "none"):
        if extra not in out:
            out.append(extra)
    return out


def eval_cell(kind: str, inputs: list[Tensor], sources: list[list[int]],
              edge) -> Tensor:
    """Run a cell graph. sources[n] lists the states feeding intermediate
    node n (inputs first, then earlier nodes); edge(k, x) is the output of
    the k-th edge, counted node by node in that order. A node sums its
    edges; CNN cells concatenate the nodes along channels, SeqNN cells
    average them."""
    states = list(inputs)
    k = 0
    for srcs in sources:
        acc = None
        for i in srcs:
            out = edge(k, states[i])
            acc = out if acc is None else acc + out
            k += 1
        states.append(acc)
    nodes = states[len(inputs):]
    if kind == "cnn":
        return concat(nodes, axis=1)
    total = nodes[0]
    for node in nodes[1:]:
        total = total + node
    return total * (1.0 / len(nodes))


class MixedEdge(Module):
    """All candidates of one edge; forward mixes them with softmax weights."""

    def __init__(self, ops: list[Module]):
        self.ops = ops

    def forward(self, x: Tensor, alpha: Tensor) -> Tensor:
        if alpha.shape != (len(self.ops),):
            raise ContractViolation(
                f"edge got {len(self.ops)} candidates but alpha {alpha.shape}")
        weights = softmax(alpha, axis=0)
        outs = stack([op(x) for op in self.ops], axis=0)
        wshape = (len(self.ops),) + (1,) * (outs.ndim - 1)
        return (outs * weights.reshape(wshape)).sum(axis=0)


class Cell(Module):
    """One search cell. `kind` is "cnn" or "seqnn"; `width` is the channel
    count (cnn) or hidden width (seqnn). Inputs to forward() must already
    be at the cell's working width: projection is the caller's job."""

    def __init__(self, kind: str, scope, width: int, b: int, reduction: bool,
                 rng: np.random.Generator, num_inputs: int = 2):
        if kind not in ("cnn", "seqnn"):
            raise ContractViolation(f"unknown cell kind {kind!r}")
        if b < 1 or num_inputs < 1:
            raise ContractViolation("cell needs b >= 1 and num_inputs >= 1")
        if kind == "seqnn" and reduction:
            raise ContractViolation("sequence cells have no reduction form")
        self.kind = kind
        self.scope = list(scope)
        self.width = width
        self.b = b
        self.reduction = reduction
        self.num_inputs = num_inputs
        self.edge_index: list[tuple[int, int]] = []   # (from_node, to_node)
        self.edges: list[MixedEdge] = []
        for j in range(num_inputs, num_inputs + b):
            for i in range(j):
                stride = 2 if (reduction and i < num_inputs) else 1
                if kind == "cnn":
                    ops = [build_cnn_op(name, width, stride, rng)
                           for name in self.scope]
                else:
                    ops = [build_seq_op(name, width, width, rng)
                           for name in self.scope]
                self.edge_index.append((i, j))
                self.edges.append(MixedEdge(ops))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _check_input(self, x: Tensor, pos: int) -> None:
        if self.kind == "cnn":
            if x.ndim != 4 or x.shape[1] != self.width:
                raise ContractViolation(
                    f"cell input {pos} has shape {x.shape}; expected "
                    f"(B, {self.width}, H, W). Project inputs before the cell.")
        else:
            if x.ndim != 3 or x.shape[2] != self.width:
                raise ContractViolation(
                    f"cell input {pos} has shape {x.shape}; expected "
                    f"(B, T, {self.width}). Project inputs before the cell.")

    def forward(self, inputs: list[Tensor], alphas: Tensor) -> Tensor:
        if len(inputs) != self.num_inputs:
            raise ContractViolation(
                f"cell wants {self.num_inputs} inputs, got {len(inputs)}")
        for pos, x in enumerate(inputs):
            self._check_input(x, pos)
        if alphas.shape[0] != len(self.edges):
            raise ContractViolation(
                f"alpha table has {alphas.shape[0]} rows, cell has "
                f"{len(self.edges)} edges")
        sources = [list(range(self.num_inputs + j)) for j in range(self.b)]
        return eval_cell(self.kind, inputs, sources,
                         lambda k, x: self.edges[k](x, alphas[k]))


def discretize_edge(alpha_row: np.ndarray, op_names: list[str]):
    """Pick the strongest non-"none" candidate on one edge.

    Returns (op name, softmax weight of the winner). Ties go to the lowest
    catalog index because only a strictly greater weight displaces the
    current winner. An edge whose scope is just {"none"} stays "none" with
    strength 0; degeneracy detection deals with it downstream.
    """
    alpha_row = np.asarray(alpha_row, dtype=np.float64)
    if alpha_row.shape != (len(op_names),):
        raise ContractViolation(
            f"alpha row {alpha_row.shape} does not match {len(op_names)} ops")
    z = np.exp(alpha_row - alpha_row.max())
    w = z / z.sum()
    best, best_w = None, -1.0
    for k, name in enumerate(op_names):
        if name == "none":
            continue
        if w[k] > best_w:
            best, best_w = name, float(w[k])
    if best is None:
        return "none", 0.0
    return best, best_w
