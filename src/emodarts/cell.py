"""The cell layout and the weight-sharing search cells.

A cell is a small DAG: `num_inputs` input nodes followed by B intermediate
nodes, with an edge from every earlier node to every intermediate node.
Search cells, derived cells and genomes share this module's edge order,
reduction strides, component keys and retained-edge check. In a search
cell each edge holds one instance of every candidate op in the scope, and
its output is the softmax(alpha)-weighted sum of all candidates. A node's
value is the sum of its incoming edge outputs. `eval_cell` runs that graph
for both the search cells here and the discrete cells of derived models.

CNN cells concatenate the intermediate nodes along channels (output width
B * channels); SeqNN cells average them elementwise (width stays hidden).
Reduction cells apply stride 2, but only on edges whose source is an input
node; by then the spatial size has already been halved.
"""

from __future__ import annotations

import numpy as np

from .artifacts import is_int
from .errors import ContractViolation
from .ops import (PASSIVE_OPS, Module, build_cnn_op, build_seq_op,
                  run_candidates)
from .tensor import Tensor, _mix, concat, softmax

__all__ = ["MixedEdge", "Cell", "eval_cell", "num_edges", "augment_scope",
           "discretize_edge", "cell_edges", "edge_stride", "component_key",
           "check_retained"]


def num_edges(b: int, num_inputs: int = 2) -> int:
    """Edges in a cell with `b` intermediate nodes: every earlier node
    feeds every intermediate, so b*num_inputs + b*(b-1)/2."""
    return b * num_inputs + b * (b - 1) // 2


def augment_scope(scope) -> list[str]:
    """A searchable scope always contains skip_connect and none, appended
    after the caller's candidates when missing."""
    out = list(scope)
    return out + [op for op in PASSIVE_OPS if op not in out]


def cell_edges(b: int, num_inputs: int = 2) -> list[tuple[int, int]]:
    """Every (from_node, to_node) edge of a cell with `b` intermediate
    nodes, ordered by to_node, then from_node."""
    return [(i, j) for j in range(num_inputs, num_inputs + b)
            for i in range(j)]


def edge_stride(reduction: bool, i: int, num_inputs: int = 2) -> int:
    """Stride of an edge from node i: a reduction cell strides the edges
    that leave an input node."""
    return 2 if (reduction and i < num_inputs) else 1


def component_key(kind: str, reduction: bool) -> str:
    """The genome component (and coefficient table) a cell belongs to."""
    return ("seqnn" if kind == "seqnn" else
            "cnn_reduce" if reduction else "cnn_normal")


def check_retained(edges, b: int, ops) -> list[dict]:
    """Check the retained edges of a discrete 2-input cell with `b`
    intermediate nodes; returns plain copies. Each is {from_node, to_node,
    op} with ints 0 <= from < to, 2 <= to < 2 + b and an op in `ops`. They
    come once each in cell_edges order; every intermediate node has one,
    and each input node feeds one whose op is not "none" (an unused input's
    projection would never get a gradient)."""
    if not isinstance(edges, list):
        raise ContractViolation("expected a list of edges")
    out = []
    for e in edges:
        if not isinstance(e, dict) or set(e) != {"from_node", "to_node", "op"}:
            raise ContractViolation(f"malformed edge {e!r}")
        i, j, op = e["from_node"], e["to_node"], e["op"]
        if not (is_int(i) and is_int(j)):
            raise ContractViolation(f"non-integer node in {e!r}")
        if not (0 <= i < j and 2 <= j < 2 + b):
            raise ContractViolation(f"edge ({i} -> {j}) outside a {b}-node cell")
        if not isinstance(op, str) or op not in ops:
            raise ContractViolation(f"unknown op {op!r}")
        out.append({"from_node": i, "to_node": j, "op": op})
    keys = [(e["to_node"], e["from_node"]) for e in out]
    if keys != sorted(set(keys)):
        raise ContractViolation(
            "edges repeated or not in (to_node, from_node) order")
    orphans = set(range(2, 2 + b)) - {j for j, _ in keys}
    if orphans:
        raise ContractViolation(
            f"node {min(orphans)} has no retained incoming edges")
    unused = {0, 1} - {e["from_node"] for e in out if e["op"] != "none"}
    if unused:
        raise ContractViolation(
            f"input node {min(unused)} feeds no retained edge other than none")
    return out


def _edge_op(kind: str, name: str, width: int, stride: int,
             rng: np.random.Generator, affine: bool) -> Module:
    """One candidate op on a cell edge at the cell's working width."""
    if kind == "cnn":
        return build_cnn_op(name, width, stride, rng, affine)
    return build_seq_op(name, width, width, rng)


def eval_cell(kind: str, inputs: list[Tensor], edges, edge) -> Tensor:
    """Run a cell graph. `edges` lists (from_node, to_node) pairs in
    cell_edges order, at least one per intermediate node; edge(k, x) is
    the output of the k-th. A node sums its edges; CNN cells concatenate
    the nodes along channels, SeqNN cells average them."""
    states = list(inputs)
    for k, (i, j) in enumerate(edges):
        out = edge(k, states[i])
        if j < len(states):
            states[j] = states[j] + out
        else:
            states.append(out)
    nodes = states[len(inputs):]
    if kind == "cnn":
        return concat(nodes, axis=1)
    total = nodes[0]
    for node in nodes[1:]:
        total = total + node
    return total * (1.0 / len(nodes))


class MixedEdge(Module):
    """All candidates of one edge; forward mixes them with softmax weights.
    The recurrent candidates of a SeqNN edge run in lockstep
    (ops.run_candidates)."""

    def __init__(self, ops: list[Module]):
        self.ops = ops

    def forward(self, x: Tensor, alpha: Tensor) -> Tensor:
        if alpha.shape != (len(self.ops),):
            raise ContractViolation(
                f"edge got {len(self.ops)} candidates but alpha {alpha.shape}")
        return _mix(softmax(alpha, axis=0), run_candidates(self.ops, x))


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
        self.edge_index = cell_edges(b, num_inputs)   # (from_node, to_node)
        self.edges: list[MixedEdge] = []
        for i, _ in self.edge_index:
            stride = edge_stride(reduction, i, num_inputs)
            self.edges.append(MixedEdge([
                _edge_op(kind, name, width, stride, rng, False)
                for name in self.scope]))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _check_input(self, x: Tensor, pos: int) -> None:
        cnn = self.kind == "cnn"
        if x.ndim != (4 if cnn else 3) or x.shape[1 if cnn else 2] != self.width:
            want = f"(B, {self.width}, H, W)" if cnn else f"(B, T, {self.width})"
            raise ContractViolation(
                f"cell input {pos} has shape {x.shape}; expected {want}. "
                f"Project inputs before the cell.")

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
        return eval_cell(self.kind, inputs, self.edge_index,
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
