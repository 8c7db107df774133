"""Genome extraction, retention, canonical serialization, degeneracy, and
DOT export."""

import json
import re

import numpy as np
import pytest

from emodarts import DataError
from emodarts.config import SearchConfig
from emodarts.genome import (Genome, deserialize, detect_degenerate,
                             export_dot, extract_genome, serialize)
from emodarts.ops import CNN_OPS
from emodarts.supernet import build_supernet


def make_net(**kw):
    base = dict(C=1, N=1, B_cnn=2, B_seqnn=2, channels=4, hidden=8,
                seq_scope=("lstm_1", "rnn_1"), epochs=1, batch_size=4)
    base.update(kw)
    cfg = SearchConfig(**base)
    return build_supernet(cfg, np.random.default_rng(0), input_hw=(8, 8))


def onehot_rows(n_rows, width, hot, value=5.0):
    t = np.zeros((n_rows, width))
    for r, k in enumerate(hot):
        t[r, k] = value
    return t


def test_extract_retains_two_strongest_edges_per_node():
    net = make_net()
    # seq scope augmented: [lstm_1, rnn_1, skip_connect, none]
    # edges: (0,2) (1,2) (0,3) (1,3) (2,3); make (1,3) weakest
    table = np.zeros((5, 4))
    table[:, 0] = 3.0          # lstm_1 everywhere
    table[3, 0] = 0.1          # edge (1,3) barely cares
    net.alpha("seqnn").data[:] = table
    g = extract_genome(net)
    assert [(e["from_node"], e["to_node"]) for e in g.seqnn] == \
        [(0, 2), (1, 2), (0, 3), (2, 3)]
    assert all(e["op"] == "lstm_1" for e in g.seqnn)


def test_extract_tie_prefers_lower_from_node():
    net = make_net()
    net.alpha("seqnn").data[:] = np.zeros((5, 4))
    g = extract_genome(net)
    # all strengths equal: stable sort keeps from_node order
    assert [(e["from_node"], e["to_node"]) for e in g.seqnn] == \
        [(0, 2), (1, 2), (0, 3), (1, 3)]
    # equal op weights: lowest catalog index wins, which is lstm_1
    assert {e["op"] for e in g.seqnn} == {"lstm_1"}


def test_retain_all_keeps_every_edge():
    net = make_net()
    g = extract_genome(net, retain_all=True)
    assert len(g.seqnn) == 5
    assert len(g.cnn_reduce) == 5


def test_strength_ignores_none_weight():
    net = make_net()
    table = np.zeros((5, 4))
    # edge (2,3): huge none weight, tiny lstm; others: solid rnn
    table[:, 1] = 2.0
    table[4] = [0.5, 0.0, 0.0, 6.0]
    net.alpha("seqnn").data[:] = table
    g = extract_genome(net)
    picked = {(e["from_node"], e["to_node"]): e["op"] for e in g.seqnn}
    # none never counts toward strength, so (2,3) loses to (0,3)/(1,3)
    assert (2, 3) not in picked
    assert picked[(0, 3)] == "rnn_1"


def test_absent_kinds_serialize_as_empty_blueprints():
    net = make_net(C=0)
    g = extract_genome(net)
    assert g.cnn_normal == [] and g.cnn_reduce == []
    assert len(g.seqnn) == 4
    round_tripped = deserialize(serialize(g))
    assert round_tripped.cnn_normal == []


def test_config_echo_shape():
    g = extract_genome(make_net())
    assert g.config == {"B": {"cnn": 2, "seqnn": 2}, "C": 1, "N": 1,
                        "channels": 4, "hidden": 8}


def test_serialize_is_canonical_and_round_trips():
    g = extract_genome(make_net())
    text = serialize(g)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)        # sorted keys
    again = serialize(deserialize(text))
    assert again == text                   # byte-identical round trip
    assert deserialize(text) == g          # value-level equality


PINNED_GENOME = Genome(
    version=1, scope=["lstm_att_1", "rnn_2", "skip_connect", "none"],
    cnn_normal=[{"from_node": 0, "to_node": 2, "op": "sep_conv_3x3"},
                {"from_node": 1, "to_node": 2, "op": "max_pool_3x3"},
                {"from_node": 2, "to_node": 3, "op": "conv_7x1_1x7"}],
    cnn_reduce=[{"from_node": 1, "to_node": 2, "op": "dil_conv_5x5"},
                {"from_node": 0, "to_node": 3, "op": "avg_pool_3x3"},
                {"from_node": 2, "to_node": 3, "op": "skip_connect"}],
    seqnn=[{"from_node": 0, "to_node": 2, "op": "lstm_att_1"},
           {"from_node": 1, "to_node": 2, "op": "rnn_2"}],
    config={"B": {"cnn": 2, "seqnn": 1}, "C": 3, "N": 1, "channels": 6,
            "hidden": 10})

PINNED_TEXT = (
    '{"cnn_normal":[{"from_node":0,"op":"sep_conv_3x3","to_node":2},'
    '{"from_node":1,"op":"max_pool_3x3","to_node":2},'
    '{"from_node":2,"op":"conv_7x1_1x7","to_node":3}],'
    '"cnn_reduce":[{"from_node":1,"op":"dil_conv_5x5","to_node":2},'
    '{"from_node":0,"op":"avg_pool_3x3","to_node":3},'
    '{"from_node":2,"op":"skip_connect","to_node":3}],'
    '"config":{"B":{"cnn":2,"seqnn":1},"C":3,"N":1,"channels":6,"hidden":10},'
    '"scope":["lstm_att_1","rnn_2","skip_connect","none"],'
    '"seqnn":[{"from_node":0,"op":"lstm_att_1","to_node":2},'
    '{"from_node":1,"op":"rnn_2","to_node":2}],"version":1}\n')


def test_serialize_writes_the_pinned_document():
    # the genome file format: these bytes must not drift between versions
    assert serialize(PINNED_GENOME) == PINNED_TEXT
    assert deserialize(PINNED_TEXT) == PINNED_GENOME
    assert serialize(deserialize(PINNED_TEXT)) == PINNED_TEXT


def test_serialize_orders_edges_by_to_then_from():
    g = extract_genome(make_net(), retain_all=True)
    for comp in (g.cnn_reduce, g.seqnn):
        keys = [(e["to_node"], e["from_node"]) for e in comp]
        assert keys == sorted(keys)


def _one_node_reduce(*ops):
    """A mutation to a 1-node reduction cell whose input node i feeds node
    2 through ops[i]."""
    def mutate(doc):
        doc["config"]["B"]["cnn"] = 1
        doc["cnn_reduce"] = [{"from_node": i, "to_node": 2, "op": op}
                             for i, op in enumerate(ops)]
    return mutate


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.pop("seqnn"), "missing"),
    (lambda d: d["seqnn"].append({"from_node": 0, "to_node": 9, "op": "rnn_1"}),
     "outside"),
    (lambda d: d["seqnn"].append({"from_node": 0, "to_node": 3, "op": "warp"}),
     "op"),
    (lambda d: d["config"].pop("channels"), "config"),
    (lambda d: d.update(scope=["gru_9"]), "scope"),
    (lambda d: d["seqnn"][0].update(from_node=False, to_node=True), "integer"),
    (lambda d: d["config"].update(C=True), "echo"),
    (lambda d: d["config"].update(hidden=0), "hidden"),
    (lambda d: d.update(cnn_reduce=[]), "lacks a cnn_reduce"),
    (lambda d: d.update(seqnn=d["seqnn"][:2]), "no retained incoming"),
    (lambda d: d["seqnn"].insert(1, dict(d["seqnn"][0])), "repeated"),
    (lambda d: d["seqnn"].insert(
        0, {"from_node": 0, "to_node": 1, "op": "rnn_1"}), "(0 -> 1) outside"),
    (lambda d: d["seqnn"][0].update(op=["rnn_1"]), "unknown op"),
    (lambda d: d.update(scope=[["rnn_1"]]), "invalid scope"),
    (_one_node_reduce("skip_connect"), "input node 1 feeds no retained edge"),
    (_one_node_reduce("skip_connect", "none"),
     "input node 1 feeds no retained edge"),
])
def test_deserialize_rejects_malformed_documents(mutate, fragment):
    doc = json.loads(serialize(extract_genome(make_net())))
    mutate(doc)
    with pytest.raises(DataError) as err:
        deserialize(json.dumps(doc))
    assert fragment in str(err.value).lower()


def test_deserialize_rejects_non_json():
    with pytest.raises(DataError):
        deserialize("{not json")


def test_degeneracy_flags_all_passive_components():
    g = extract_genome(make_net())
    g.seqnn = [{"from_node": 0, "to_node": 2, "op": "skip_connect"},
               {"from_node": 1, "to_node": 2, "op": "none"}]
    flags = detect_degenerate(g)
    assert flags["seqnn"] is True
    assert flags["cnn"] is False


def test_degeneracy_ignores_empty_components():
    g = extract_genome(make_net(C=0))
    flags = detect_degenerate(g)
    assert flags["cnn"] is False


def test_skip_none_scope_yields_flagged_all_skip_genome():
    net = make_net(seq_scope=("skip_connect", "none"))
    g = extract_genome(net)
    assert all(e["op"] == "skip_connect" for e in g.seqnn)
    assert detect_degenerate(g)["seqnn"] is True


def test_export_dot_minimal_cell_has_four_nodes():
    g = Genome(version=1, scope=["rnn_1", "skip_connect", "none"],
               seqnn=[{"from_node": 1, "to_node": 2, "op": "rnn_1"}],
               config={"B": {"cnn": 1, "seqnn": 1}, "C": 0, "N": 1,
                       "channels": 4, "hidden": 8})
    dot = export_dot(g)
    nodes = re.findall(r'^\s*(\S+) \[label="([^"]*)"\];', dot, re.M)
    labels = [lab for _, lab in nodes]
    assert labels == ["c_{t-2}", "c_{t-1}", "0", "out"]
    assert 'label="rnn_1"' in dot
    assert dot.count("->") == 2  # one retained edge + intermediate-to-out


def test_export_dot_covers_all_components():
    g = extract_genome(make_net(C=3))
    dot = export_dot(g)
    for comp in ("cnn_normal", "cnn_reduce", "seqnn"):
        assert f"cluster_{comp}" in dot
