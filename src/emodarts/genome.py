"""Discrete architecture genomes.

A genome freezes the outcome of a search: for each cell kind it lists the
retained edges as (from_node, to_node, op) triples, plus the SeqNN
candidate scope and an echo of the structural config. Node indices follow
cell layout: 0 and 1 are the two input nodes, intermediates start at 2.

Retention keeps the two strongest incoming edges per intermediate node
(every edge, under retain-all), where an edge's strength is its best
non-"none" softmax weight. Serialization is canonical: sorted keys,
compact separators, edges ordered by (to_node, from_node), so equal
genomes produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .artifacts import is_int
from .cell import discretize_edge
from .errors import ContractViolation, DataError
from .ops import CNN_OPS, SEQNN_OPS
from .supernet import Supernet

__all__ = ["Genome", "GENOME_VERSION", "extract_genome", "serialize",
           "deserialize", "detect_degenerate", "export_dot"]

GENOME_VERSION = 1

_PASSIVE = {"skip_connect", "none"}


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


def _edge_iter(b: int, num_inputs: int = 2):
    for j in range(num_inputs, num_inputs + b):
        for i in range(j):
            yield i, j


def _retain(table: np.ndarray, scope: list, b: int,
            retain_all: bool) -> list[dict]:
    """Discretize one coefficient table into a retained-edge list."""
    rows = {edge: k for k, edge in enumerate(_edge_iter(b))}
    if table.shape[0] != len(rows):
        raise ContractViolation(
            f"table has {table.shape[0]} rows for {len(rows)} edges")
    picked: list[tuple[int, int, str]] = []
    for j in range(2, 2 + b):
        incoming = []
        for i in range(j):
            op, strength = discretize_edge(table[rows[(i, j)]], scope)
            incoming.append((-strength, i, op))
        incoming.sort()
        keep = incoming if retain_all else incoming[:2]
        picked.extend((i, j, op) for _, i, op in keep)
    picked.sort(key=lambda e: (e[1], e[0]))
    return [{"from_node": i, "to_node": j, "op": op} for i, j, op in picked]


def extract_genome(net: Supernet, retain_all: bool = False) -> Genome:
    cfg = net.config
    genome = Genome(version=GENOME_VERSION, scope=list(net.seq_scope))
    for key, attr, b in (("cnn_normal", "cnn_normal", cfg.B_cnn),
                         ("cnn_reduce", "cnn_reduce", cfg.B_cnn)):
        table = net.alpha(attr)
        if table is not None:
            setattr(genome, key, _retain(table.data, CNN_OPS, b, retain_all))
    seq = net.alpha("seqnn")
    if seq is not None:
        genome.seqnn = _retain(seq.data, net.seq_scope, cfg.B_seqnn, retain_all)
    genome.config = {
        "B": {"cnn": cfg.B_cnn, "seqnn": cfg.B_seqnn},
        "C": cfg.C, "N": cfg.N,
        "channels": cfg.channels, "hidden": cfg.hidden,
    }
    return genome


def serialize(genome: Genome) -> str:
    doc = {
        "version": genome.version,
        "scope": list(genome.scope),
        "cnn_normal": genome.cnn_normal,
        "cnn_reduce": genome.cnn_reduce,
        "seqnn": genome.seqnn,
        "config": genome.config,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_edges(edges, scope, b, name) -> list[dict]:
    if not isinstance(edges, list):
        raise DataError(f"{name}: expected a list of edges")
    allowed = set(scope) | _PASSIVE
    out = []
    for e in edges:
        if not isinstance(e, dict) or set(e) != {"from_node", "to_node", "op"}:
            raise DataError(f"{name}: malformed edge {e!r}")
        i, j, op = e["from_node"], e["to_node"], e["op"]
        if not (is_int(i) and is_int(j)):
            raise DataError(f"{name}: non-integer node in {e!r}")
        if not (0 <= i < j < 2 + b):
            raise DataError(f"{name}: edge ({i} -> {j}) outside a {b}-node cell")
        if op not in allowed:
            raise DataError(f"{name}: unknown op {op!r}")
        out.append({"from_node": i, "to_node": j, "op": op})
    ordered = sorted(out, key=lambda e: (e["to_node"], e["from_node"]))
    if ordered != out:
        raise DataError(f"{name}: edges not in (to_node, from_node) order")
    return out


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
            not set(scope) <= set(SEQNN_OPS) | _PASSIVE):
        raise DataError(f"invalid scope {scope!r}")
    cfg = doc["config"]
    shape = {"B", "C", "N", "channels", "hidden"}
    if not isinstance(cfg, dict) or set(cfg) != shape:
        raise DataError(f"config echo must have keys {sorted(shape)}")
    if (not isinstance(cfg["B"], dict) or set(cfg["B"]) != {"cnn", "seqnn"}
            or not all(is_int(v) and v >= 1
                       for v in cfg["B"].values())):
        raise DataError("config echo B must be {cnn: int>=1, seqnn: int>=1}")
    for k in ("C", "N", "channels", "hidden"):
        if not is_int(cfg[k]) or cfg[k] < 0:
            raise DataError(f"config echo {k} must be a non-negative integer")
    genome = Genome(
        version=doc["version"], scope=list(scope),
        cnn_normal=_check_edges(doc["cnn_normal"], CNN_OPS,
                                cfg["B"]["cnn"], "cnn_normal"),
        cnn_reduce=_check_edges(doc["cnn_reduce"], CNN_OPS,
                                cfg["B"]["cnn"], "cnn_reduce"),
        seqnn=_check_edges(doc["seqnn"], scope, cfg["B"]["seqnn"], "seqnn"),
        config={"B": dict(cfg["B"]), "C": cfg["C"], "N": cfg["N"],
                "channels": cfg["channels"], "hidden": cfg["hidden"]})
    return genome


def detect_degenerate(genome: Genome) -> dict:
    """A component is degenerate when it retained edges but none of them
    carries a parametric or pooling op: everything is skip_connect/none."""
    cnn = genome.cnn_normal + genome.cnn_reduce
    out = {}
    for name, edges in (("cnn", cnn), ("seqnn", genome.seqnn)):
        out[name] = bool(edges) and all(e["op"] in _PASSIVE for e in edges)
    return out


def export_dot(genome: Genome) -> str:
    """Graphviz rendering: one cluster per non-empty component. Inputs are
    c_{t-2} and c_{t-1}, intermediates are numbered from 0, and every
    intermediate feeds the output node."""
    lines = ["digraph genome {", "  rankdir=LR;"]
    for comp, edges in genome.components().items():
        if not edges:
            continue
        b = (genome.config.get("B", {}).get("seqnn") if comp == "seqnn"
             else genome.config.get("B", {}).get("cnn"))
        if b is None:
            b = max(e["to_node"] for e in edges) - 1
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
