"""Discrete architecture genomes.

A genome freezes the outcome of a search: for each cell kind it lists the
retained edges as (from_node, to_node, op) triples, plus the SeqNN
candidate scope and an echo of the structural config. Node indices,
edge order and the component keys follow the cell layout of `cell`: 0 and
1 are the two input nodes, intermediates start at 2.

Retention keeps the two strongest incoming edges per intermediate node
(every edge, under retain-all), where an edge's strength is its best
non-"none" softmax weight. Serialization is canonical: sorted keys,
compact separators, edges ordered by (to_node, from_node), so equal
genomes produce byte-identical JSON. `deserialize` accepts only a genome
that builds: every component passes `cell.check_retained`, the widths are
positive, and every component the echoed C and N need is non-empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import is_int
from .cell import (augment_scope, cell_edges, check_retained, component_key,
                   discretize_edge)
from .errors import ContractViolation, DataError
from .ops import CNN_OPS, PASSIVE_OPS, SEQNN_OPS
from .supernet import Supernet, reduction_positions

__all__ = ["Genome", "GENOME_VERSION", "extract_genome", "serialize",
           "deserialize", "detect_degenerate", "export_dot"]

GENOME_VERSION = 1


@dataclass
class Genome:
    version: int
    scope: list
    cnn_normal: list = field(default_factory=list)
    cnn_reduce: list = field(default_factory=list)
    seqnn: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def components(self) -> dict:
        return {"cnn_normal": self.cnn_normal, "cnn_reduce": self.cnn_reduce,
                "seqnn": self.seqnn}


def _retain(table: np.ndarray, scope: list, b: int,
            retain_all: bool) -> list[dict]:
    """Discretize one coefficient table into a retained-edge list."""
    edges = cell_edges(b)
    if table.shape[0] != len(edges):
        raise ContractViolation(
            f"table has {table.shape[0]} rows for {len(edges)} edges")
    incoming: dict[int, list] = {}
    for row, (i, j) in zip(table, edges):
        op, strength = discretize_edge(row, scope)
        incoming.setdefault(j, []).append((-strength, i, op))
    picked = []
    for j, cands in incoming.items():
        keep = sorted(cands)[:None if retain_all else 2]
        picked += [{"from_node": i, "to_node": j, "op": op}
                   for _, i, op in sorted(keep, key=lambda c: c[1])]
    return picked


def extract_genome(net: Supernet, retain_all: bool = False) -> Genome:
    cfg = net.config
    genome = Genome(version=GENOME_VERSION, scope=list(net.seq_scope))
    cells = {component_key(c.kind, c.reduction): c
             for c in net.cnn_cells + net.seq_cells}
    for key, cell in cells.items():
        setattr(genome, key, _retain(net.alpha(key).data, cell.scope, cell.b,
                                     retain_all))
    genome.config = {
        "B": {"cnn": cfg.B_cnn, "seqnn": cfg.B_seqnn},
        "C": cfg.C, "N": cfg.N,
        "channels": cfg.channels, "hidden": cfg.hidden,
    }
    return genome


def serialize(genome: Genome) -> str:
    return json.dumps(asdict(genome), sort_keys=True,
                      separators=(",", ":")) + "\n"


def deserialize(text: str) -> Genome:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"genome is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("genome root must be an object")
    required = {"version", "scope", "cnn_normal", "cnn_reduce", "seqnn",
                "config"}
    missing = required - set(doc)
    if missing:
        raise DataError(f"genome is missing fields: {sorted(missing)}")
    if doc["version"] != GENOME_VERSION:
        raise DataError(f"unsupported genome version {doc['version']!r}")
    scope = doc["scope"]
    if (not isinstance(scope, list) or
            not all(s in augment_scope(SEQNN_OPS) for s in scope)):
        raise DataError(f"invalid scope {scope!r}")
    cfg = doc["config"]
    shape = {"B", "C", "N", "channels", "hidden"}
    if not isinstance(cfg, dict) or set(cfg) != shape:
        raise DataError(f"config echo must have keys {sorted(shape)}")
    if (not isinstance(cfg["B"], dict) or set(cfg["B"]) != {"cnn", "seqnn"}
            or not all(is_int(v) and v >= 1
                       for v in cfg["B"].values())):
        raise DataError("config echo B must be {cnn: int>=1, seqnn: int>=1}")
    for k, low in (("C", 0), ("N", 0), ("channels", 1), ("hidden", 1)):
        if not is_int(cfg[k]) or cfg[k] < low:
            raise DataError(f"config echo {k} must be an integer >= {low}")
    edges = {}
    for key, ops, b in (("cnn_normal", CNN_OPS, cfg["B"]["cnn"]),
                        ("cnn_reduce", CNN_OPS, cfg["B"]["cnn"]),
                        ("seqnn", augment_scope(scope), cfg["B"]["seqnn"])):
        try:   # an empty component stands for a cell kind the net lacks
            edges[key] = (check_retained(doc[key], b, ops)
                          if doc[key] != [] else [])
        except ContractViolation as exc:
            raise DataError(f"{key}: {exc}") from exc
    # cell 0 and the reduction cells cover every kind a CNN chain has
    reds = reduction_positions(cfg["C"])
    needed = {component_key("cnn", k in reds) for k in {0} | reds
              if k < cfg["C"]} | ({"seqnn"} if cfg["N"] else set())
    for key in sorted(needed):
        if not edges[key]:
            raise DataError(f"genome lacks a {key} blueprint, which "
                            f"C={cfg['C']}, N={cfg['N']} need")
    return Genome(version=doc["version"], scope=scope, config=cfg, **edges)


def detect_degenerate(genome: Genome) -> dict:
    """A component is degenerate when it retained edges but none of them
    carries a parametric or pooling op: everything is skip_connect/none."""
    cnn = genome.cnn_normal + genome.cnn_reduce
    out = {}
    for name, edges in (("cnn", cnn), ("seqnn", genome.seqnn)):
        out[name] = bool(edges) and all(e["op"] in PASSIVE_OPS for e in edges)
    return out


def export_dot(genome: Genome) -> str:
    """Graphviz rendering: one cluster per non-empty component. Inputs are
    c_{t-2} and c_{t-1}, intermediates are numbered from 0, and every
    intermediate feeds the output node."""
    lines = ["digraph genome {", "  rankdir=LR;"]
    for comp, edges in genome.components().items():
        if not edges:
            continue
        b = genome.config["B"]["seqnn" if comp == "seqnn" else "cnn"]
        lines.append(f"  subgraph cluster_{comp} {{")
        lines.append(f'    label="{comp}";')
        node = {0: f"{comp}_in0", 1: f"{comp}_in1"}
        lines.append(f'    {node[0]} [label="c_{{t-2}}"];')
        lines.append(f'    {node[1]} [label="c_{{t-1}}"];')
        for k in range(2, 2 + b):
            node[k] = f"{comp}_n{k - 2}"
            lines.append(f'    {node[k]} [label="{k - 2}"];')
        lines.append(f'    {comp}_out [label="out"];')
        for e in edges:
            lines.append(f'    {node[e["from_node"]]} -> '
                         f'{node[e["to_node"]]} [label="{e["op"]}"];')
        for k in range(2, 2 + b):
            lines.append(f"    {node[k]} -> {comp}_out;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
