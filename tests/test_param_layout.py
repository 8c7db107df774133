"""Pin the parameter layout. A checkpoint payload is the raw float64 arrays
of params() then buffers(), in that order, so a change to any shape, draw
or declaration order would silently load old weights into the wrong
places. Each digest covers the shapes and bytes of those arrays for a
freshly seeded model; a refactor of the op catalog must leave them all
unchanged."""

import hashlib

import numpy as np
import pytest

from emodarts.config import SearchConfig
from emodarts.derived import instantiate
from emodarts.genome import GENOME_VERSION, Genome
from emodarts.harness import BASELINE_KINDS, Baseline
from emodarts.ops import SEQNN_OPS
from emodarts.supernet import build_supernet

HW = (16, 16)
CFG = SearchConfig(C=3, N=1, B_cnn=2, B_seqnn=2, channels=4, hidden=6,
                   baseline_channels=2, baseline_dense=8, baseline_lstm=6)


def _edges(*triples):
    return [{"from_node": i, "to_node": j, "op": op} for i, j, op in triples]


# every parametrized CNN op and both attention kinds, plus the passive ops
GENOME = Genome(
    version=GENOME_VERSION, scope=list(SEQNN_OPS),
    cnn_normal=_edges((0, 2, "dil_conv_3x3"), (1, 2, "sep_conv_3x3"),
                      (0, 3, "conv_7x1_1x7"), (2, 3, "dil_conv_5x5")),
    cnn_reduce=_edges((0, 2, "max_pool_3x3"), (1, 2, "sep_conv_5x5"),
                      (1, 3, "skip_connect"), (2, 3, "avg_pool_3x3")),
    seqnn=_edges((0, 2, "lstm_att_2"), (1, 2, "rnn_att_1"),
                 (1, 3, "skip_connect"), (2, 3, "none")),
    config={"B": {"cnn": 2, "seqnn": 2}, "C": 3, "N": 1, "channels": 4,
            "hidden": 6})

EXPECTED = {
    "supernet":
        "129db2a14616e1c6f2595d3a979b3c243425d35f7cfc99e0379621ae946664cf",
    "derived":
        "59b55bd5b859c983f44764736f3d4c92fcc7e66a1bf732e97d83b15a8653c3b1",
    "cnn":
        "eff7bd428f5d22b2d427125dc3d5c57d357b069b9d94a57fa5498a3bdb161603",
    "cnn_lstm":
        "3f207f34c89a8c270d75fda632304bc77a6bc8eee94c620f8d4b6fd4135d28c5",
    "cnn_lstm_att":
        "bd1e8ca9d53902edbbcb72907a6b248630bfe0738dbe04be0014593a2f18a067",
}


def _build(name):
    if name == "supernet":
        return build_supernet(CFG, np.random.default_rng(5), input_hw=HW)
    if name == "derived":
        return instantiate(GENOME, CFG, seed=5, input_hw=HW)
    return Baseline(name, CFG, seed=5, input_hw=HW)


def layout_digest(module) -> str:
    h = hashlib.sha256()
    for a in [p.data for p in module.params()] + list(module.buffers()):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["supernet", "derived"] + BASELINE_KINDS)
def test_parameter_layout_is_pinned(name):
    assert layout_digest(_build(name)) == EXPECTED[name]
