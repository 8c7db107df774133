"""The cell layout and the one cell class of search and derived networks.

A cell is a small DAG: `num_inputs` input nodes followed by B intermediate
nodes. Search cells, derived cells and genomes share this module's edge
order, reduction strides, component keys and retained-edge check. A search
cell has an edge from every earlier node to every intermediate node; each
edge holds one instance of every candidate op in the scope, and its output
is the softmax(alpha)-weighted sum of all candidates. A discrete cell keeps
only a genome's retained edges, one op each. In both forms a node's value
is the sum of its incoming edge outputs. A CNN cell computes one ReLU per
source node, which every ReLU-first op on the edges leaving it reads.

CNN cells concatenate the intermediate nodes along channels (output width
B * channels); SeqNN cells average them elementwise (width stays hidden).
Reduction cells apply stride 2, but only on edges whose source is an input
node; by then the spatial size has already been halved.
"""

from __future__ import annotations

import numpy as np

from .artifacts import is_int
from .errors import ContractViolation
from .ops import (PASSIVE_OPS, Module, ReLUFirst, build_cnn_op, build_seq_op,
                  run_candidates, run_op)
from .tensor import Tensor, _mix, concat, relu, softmax

__all__ = ["MixedEdge", "Cell", "num_edges", "augment_scope",
           "discretize_edge", "cell_edges", "edge_stride", "component_key",
           "check_retained"]


def num_edges(b: int) -> int:
    """Edges in a cell with two input nodes and `b` intermediate nodes:
    every earlier node feeds every intermediate, so 2b + b(b-1)/2."""
    return b * 2 + b * (b - 1) // 2


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


class MixedEdge(Module):
    """All candidates of one edge; forward mixes them with softmax weights.
    The recurrent candidates of a SeqNN edge run in lockstep, and given
    r = relu(x) the ReLU-first ones read it (ops.run_candidates)."""

    def __init__(self, ops: list[Module]):
        self.ops = ops

    def forward(self, x: Tensor, alpha: Tensor,
                r: Tensor | None = None) -> Tensor:
        if alpha.shape != (len(self.ops),):
            raise ContractViolation(
                f"edge got {len(self.ops)} candidates but alpha {alpha.shape}")
        return _mix(softmax(alpha, axis=0), run_candidates(self.ops, x, r))


class Cell(Module):
    """One cell. `kind` is "cnn" or "seqnn"; `width` is the channel count
    (cnn) or hidden width (seqnn). Inputs to forward() must already be at
    the cell's working width: projection is the caller's job. The search
    form mixes `scope` on every edge and runs as cell(inputs, alphas); the
    discrete form keeps the ops of a `retained` genome component, checked
    against `scope`, with affine norms, and runs as cell(inputs)."""

    def __init__(self, kind: str, scope, width: int, b: int, reduction: bool,
                 rng: np.random.Generator, num_inputs: int = 2,
                 retained=None):
        if kind not in ("cnn", "seqnn"):
            raise ContractViolation(f"unknown cell kind {kind!r}")
        if b < 1 or num_inputs < 1:
            raise ContractViolation("cell needs b >= 1 and num_inputs >= 1")
        if kind == "seqnn" and reduction:
            raise ContractViolation("sequence cells have no reduction form")
        if retained is not None and num_inputs != 2:
            raise ContractViolation("a discrete cell has exactly 2 inputs")
        self.kind = kind
        self.scope = list(scope)
        self.width = width
        self.b = b
        self.reduction = reduction
        self.num_inputs = num_inputs
        self.discrete = retained is not None

        def op(name: str, i: int) -> Module:
            if kind == "seqnn":
                return build_seq_op(name, width, width, rng)
            stride = edge_stride(reduction, i, num_inputs)
            return build_cnn_op(name, width, stride, rng, self.discrete)

        if self.discrete:
            kept = check_retained(retained, b, self.scope)
            self.edge_index = [(e["from_node"], e["to_node"]) for e in kept]
            self.edges = [op(e["op"], e["from_node"]) for e in kept]
        else:
            self.edge_index = cell_edges(b, num_inputs)  # (from_node, to_node)
            self.edges = [MixedEdge([op(name, i) for name in self.scope])
                          for i, _ in self.edge_index]
        # the source nodes that a ReLU-first op on a leaving edge reads
        self.rectified = {i for (i, _), e in zip(self.edge_index, self.edges)
                          for o in (e.ops if isinstance(e, MixedEdge) else [e])
                          if isinstance(o, ReLUFirst)}

    def _check_input(self, x: Tensor, pos: int) -> None:
        cnn = self.kind == "cnn"
        if x.ndim != (4 if cnn else 3) or x.shape[1 if cnn else 2] != self.width:
            want = f"(B, {self.width}, H, W)" if cnn else f"(B, T, {self.width})"
            raise ContractViolation(
                f"cell input {pos} has shape {x.shape}; expected {want}. "
                f"Project inputs before the cell.")

    def forward(self, inputs: list[Tensor],
                alphas: Tensor | None = None) -> Tensor:
        if len(inputs) != self.num_inputs:
            raise ContractViolation(
                f"cell wants {self.num_inputs} inputs, got {len(inputs)}")
        for pos, x in enumerate(inputs):
            self._check_input(x, pos)
        rows = None if alphas is None else alphas.shape[0]
        if rows != (None if self.discrete else len(self.edges)):
            raise ContractViolation(
                f"got alpha table rows {rows}: a search cell takes one row "
                f"per edge ({len(self.edges)}), a discrete cell no table")
        states, relus = list(inputs), {}
        for k, ((i, j), edge) in enumerate(zip(self.edge_index, self.edges)):
            x = states[i]   # complete: edges come in to_node order
            if i in self.rectified and i not in relus:
                relus[i] = relu(x)
            r = relus.get(i)
            out = run_op(edge, x, r) if alphas is None else edge(x, alphas[k], r)
            if j < len(states):
                states[j] = states[j] + out
            else:
                states.append(out)
        nodes = states[self.num_inputs:]
        if self.kind == "cnn":
            return concat(nodes, axis=1)
        total = nodes[0]
        for node in nodes[1:]:
            total = total + node
        return total * (1.0 / len(nodes))


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
    w = softmax(alpha_row, axis=0).data
    best, best_w = None, -1.0
    for k, name in enumerate(op_names):
        if name == "none":
            continue
        if w[k] > best_w:
            best, best_w = name, float(w[k])
    if best is None:
        return "none", 0.0
    return best, best_w
