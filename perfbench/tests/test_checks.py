"""Each benchmark check passes on the library's real output and fails on
a deliberately wrong one."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emodarts import (CNN_OPS, SearchConfig, Tensor, build_supernet, conv2d,
                      cross_entropy, deserialize, extract_genome, serialize)
from emodarts.harness import FoldResult
from emodarts.ops import lstm_seq, rnn_seq

import checks
import layers

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("wshape, args", [
    ((4, 4, 3, 3), dict(stride=(2, 2), padding=(2, 2), dilation=(2, 2))),
    ((4, 1, 5, 5), dict(padding=(2, 2), groups=4)),
    ((4, 4, 7, 1), dict(stride=(2, 1), padding=(3, 0))),
])
def test_conv_check_catches_a_perturbed_output(rng, wshape, args):
    x = rng.standard_normal((2, wshape[1] * args.get("groups", 1), 9, 8))
    w = rng.standard_normal(wshape)
    out = conv2d(Tensor(x), Tensor(w), **args).data
    assert checks.check_conv("probe", x, w, out, **args).ok
    out[1, 2, 3, 1] += 1e-6
    assert not checks.check_conv("probe", x, w, out, **args).ok
    assert not checks.check_conv("probe", x, w, out[:, :, :-1], **args).ok


@pytest.mark.parametrize("kind, fn, gates", [("lstm", lstm_seq, 4),
                                             ("rnn", rnn_seq, 1)])
def test_recurrence_check_catches_a_perturbed_step(rng, kind, fn, gates):
    x = rng.standard_normal((2, 6, 5))
    w = rng.uniform(-0.5, 0.5, (5 + 3, gates * 3))
    b = rng.uniform(-0.5, 0.5, gates * 3)
    out = fn(Tensor(x), Tensor(w), Tensor(b)).data
    assert checks.check_recurrence(kind, x, w, b, out).ok
    out[0, 4, 1] += 1e-8
    assert not checks.check_recurrence(kind, x, w, b, out).ok


def test_gradient_check_catches_a_one_percent_error(rng):
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    x = rng.standard_normal((4, 5))
    labels = np.array([0, 2, 1, 2])

    def loss_of():
        return cross_entropy(Tensor(x) @ w, labels).item()

    cross_entropy(Tensor(x) @ w, labels).backward()
    index = [(0, 0), (2, 1), (4, 2)]
    engine = [w.grad[ix] for ix in index]
    diffs = [checks.differences(loss_of, w.data, ix, 1e-6) for ix in index]
    assert checks.check_gradients("weight", engine, diffs).ok
    engine[1] *= 1.01
    assert not checks.check_gradients("weight", engine, diffs).ok


def test_gradient_check_at_a_kink_takes_either_side_only():
    # relu(a) + a at a = 0: slope 2 to the right, 1 to the left
    a = np.zeros(1)

    def loss_of():
        return max(a[0], 0.0) + a[0]

    diffs = [checks.differences(loss_of, a, (0,), 1e-6)]
    assert checks.check_gradients("weight", [1.0], diffs).ok
    assert checks.check_gradients("weight", [2.0], diffs).ok
    for wrong in (0.99, 1.01, 2.02, 3.0):
        assert not checks.check_gradients("weight", [wrong], diffs).ok


def _events(alpha_moves_in_weight_step=False, weight_moves_in_alpha_step=False,
            alpha_updates=True):
    a, w = "a0", "w0"
    out = []
    for step in range(2):
        out.append(("pre_alpha", a, w))
        a = f"a{step}x" if alpha_updates else a
        if weight_moves_in_alpha_step:
            w = f"w{step}y"
        out.append(("post_alpha", a, w))
        out.append(("pre_weight", a, w))
        w = f"w{step}x"
        if alpha_moves_in_weight_step:
            a = f"a{step}z"
        out.append(("post_weight", a, w))
    return out


def test_isolation_check():
    assert checks.check_isolation(_events()).ok
    assert not checks.check_isolation(
        _events(alpha_moves_in_weight_step=True)).ok
    assert not checks.check_isolation(
        _events(weight_moves_in_alpha_step=True)).ok
    assert not checks.check_isolation(_events(alpha_updates=False)).ok
    assert not checks.check_isolation([]).ok


@pytest.fixture()
def searched():
    cfg = SearchConfig(C=2, N=1, B_cnn=2, B_seqnn=3, channels=2, hidden=4,
                       seq_scope=("lstm_1", "rnn_1"))
    net = build_supernet(cfg, np.random.default_rng(3), input_hw=(8, 8))
    rng = np.random.default_rng(4)
    for table in net.arch_params():
        table.data[...] = rng.standard_normal(table.shape)
    return cfg, net


def test_genome_check_catches_a_swapped_edge(searched):
    cfg, net = searched
    genome = extract_genome(net)
    args = (net.alpha_tables(), CNN_OPS, net.seq_scope, cfg.B_cnn,
            cfg.B_seqnn)
    assert checks.check_genome(genome, *args).ok
    # node 4 of the SeqNN cell keeps two of its four incoming edges;
    # retain a dropped one instead of a kept one
    kept = {e["from_node"] for e in genome.seqnn if e["to_node"] == 4}
    dropped = min({0, 1, 2, 3} - kept)
    edges = [dict(e) for e in genome.seqnn]
    victim = next(e for e in edges if e["to_node"] == 4)
    victim["from_node"] = dropped
    edges.sort(key=lambda e: (e["to_node"], e["from_node"]))
    assert not checks.check_genome(replace(genome, seqnn=edges), *args).ok


def test_genome_ties_go_to_the_lower_index():
    table = np.zeros((5, 3))        # b=2: every op and edge ties
    edges = checks.retained_edges(table, ["a", "b", "none"], 2)
    assert edges == [
        {"from_node": 0, "to_node": 2, "op": "a"},
        {"from_node": 1, "to_node": 2, "op": "a"},
        {"from_node": 0, "to_node": 3, "op": "a"},
        {"from_node": 1, "to_node": 3, "op": "a"}]


def test_roundtrip_check(searched):
    genome = extract_genome(searched[1])
    assert checks.check_roundtrip(genome, serialize, deserialize).ok

    def lossy(text):
        back = deserialize(text)
        back.seqnn = back.seqnn[:-1]
        return back

    assert not checks.check_roundtrip(genome, serialize, lossy).ok


def test_loss_check():
    assert checks.check_loss_falls([1.4, 1.2, 1.1]).ok
    assert not checks.check_loss_falls([1.4, 1.5]).ok
    assert not checks.check_loss_falls([1.4]).ok


def test_metric_check_catches_ua_off_by_one_clip(rng):
    labels = np.repeat(np.arange(4), 5)
    logits = rng.standard_normal((20, 4))
    preds = logits.argmax(axis=1)
    recalls = [np.mean(preds[labels == c] == c) for c in range(4)]
    ua, wa = 100 * np.mean(recalls), 100 * np.mean(preds == labels)
    assert checks.check_metrics(ua, wa, labels, logits).ok
    # one more clip of class 0 counted as right: recall 0 moves by 1/5
    assert not checks.check_metrics(ua + 100 / 5 / 4, wa, labels, logits).ok
    assert not checks.check_metrics(ua, wa + 100 / 20, labels, logits).ok


def test_logit_check_catches_one_ulp(rng):
    a = rng.standard_normal((3, 4))
    b = a.copy()
    assert checks.check_same_logits(a, b).ok
    b[2, 1] = np.nextafter(b[2, 1], np.inf)
    assert not checks.check_same_logits(a, b).ok


def _row(scope, fold, ua, genome=None):
    return FoldResult(scope, fold, ua, ua, 100, False, False, 5, genome=genome)


def test_rerun_check(searched):
    genome = extract_genome(searched[1])
    row = _row("LSTM Only", 0, 50.0, genome)
    assert checks.check_rerun(row, replace(row), serialize).ok
    assert not checks.check_rerun(row, replace(row, ua=50.0 + 1e-12),
                                  serialize).ok
    other = replace(genome, seqnn=genome.seqnn[:-1])
    assert not checks.check_rerun(row, replace(row, genome=other),
                                  serialize).ok


def test_scatter_check():
    rows = [_row("A", 0, 50.0), _row("A", 1, 75.0), _row("B", 0, 25.0),
            replace(_row("B", 1, None), params=None)]
    scatter = [{"scope": "A", "mean_ua": 62.5, "std_ua": 12.5,
                "params": 100.0},
               {"scope": "B", "mean_ua": 25.0, "std_ua": 0.0,
                "params": 100.0}]
    assert checks.check_scatter(rows, scatter).ok
    scatter[0]["std_ua"] = 17.677669529663689     # sample, not population
    assert not checks.check_scatter(rows, scatter).ok


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [
        n for n, _ in layers.metric_names()]
    assert [m["unit"] for m in doc["per_layer"]] == [
        u for _, u in layers.metric_names()]
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "search_epoch_s", "train_epoch_s", "eval_clips_per_s",
        "baseline_epoch_s", "fold_runs_per_h", "peak_rss_mb"}
    assert [w["name"] for w in doc["workloads"]] == [
        "desk_cnn", "long_seq", "study"]
