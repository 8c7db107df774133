"""The A/B bench driver's statistics, alternation, cross-tree gap and
report, checked on made-up numbers without running a tree."""

import ast
import pathlib

import numpy as np
import pytest

import bench_ab
from bench_ab import TOP_SITES, compare, max_rel_diff, report, rounds, traced


def test_importing_the_driver_loads_neither_the_library_nor_perfbench():
    tree = ast.parse(pathlib.Path(bench_ab.__file__).read_text("utf-8"))
    top = {alias.name.split(".")[0] for node in tree.body
           if isinstance(node, ast.Import) for alias in node.names}
    top |= {node.module.split(".")[0] for node in tree.body
            if isinstance(node, ast.ImportFrom)}
    assert not top & {"emodarts", "worker", "run", "checks", "layers"}


def test_compare_counts_pairs_won_and_ties_for_neither_side():
    base, change = [10.0, 10.0, 10.0, 10.0], [8.0, 9.0, 10.0, 11.0]
    lower = compare(base, change, "lower")
    assert lower["ratio_change_over_parent"] == pytest.approx(0.95)
    assert lower["pairs_won_by_change"] == 2
    assert compare(base, change, "higher")["pairs_won_by_change"] == 1
    assert lower["parent"]["samples"] == base and lower["change"]["n"] == 4


def test_compare_median_gap_against_the_parents_iqr():
    base = [10.0, 11.0, 12.0, 13.0]          # median 11.5, IQR 1.5
    assert compare(base, [8.0] * 4, "lower")["median_gap_exceeds_parent_iqr"]
    assert not compare(base, [8.0] * 4,
                       "higher")["median_gap_exceeds_parent_iqr"]
    assert not compare(base, [10.5] * 4,
                       "lower")["median_gap_exceeds_parent_iqr"]
    assert compare(base, [13.5] * 4,
                   "higher")["median_gap_exceeds_parent_iqr"]


def test_rounds_alternate_the_arm_order():
    calls = []

    def runner(root, argv):
        calls.append(root)
        return argv

    runs = rounds({"parent": "P", "change": "C"},
                  lambda i, arm: [i, arm], 4, runner)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert runs == [{"parent": [i, "parent"], "change": [i, "change"]}
                    for i in range(4)]


def test_cross_tree_gap_is_the_largest_change_over_the_largest_parent():
    parent = {"w/step/0": np.array([1.0, -4.0]), "w/step/1": np.array([2.0]),
              "w/other/0": np.array([0.5])}
    change = {"w/step/0": np.array([1.0, -3.5]), "w/step/1": np.array([2.1]),
              "w/other/0": np.array([0.5])}
    again = dict(change, **{"w/step/1": np.array([1.0])})
    assert max_rel_diff([(parent, change)]) == {
        "w": {"step": pytest.approx(0.5 / 4.0), "other": 0.0}}
    assert max_rel_diff([(parent, change), (parent, again)])["w"]["step"] \
        == pytest.approx(1.0 / 4.0)
    assert max_rel_diff([]) == {}


def test_report_compares_timed_fields_and_checks_the_others_agree():
    def run(rate, digest):
        return {"w": {"model": {"clips_per_s": rate, "sha": digest}}}

    runs = [{"parent": run(10.0, "a"), "change": run(12.0, "a")},
            {"parent": run(11.0, "a"), "change": run(9.0, "b")}]
    row = report(runs, {"w": {"model": 0.25}})["w"]["model"]
    assert row["clips_per_s"]["pairs_won_by_change"] == 1
    assert row["clips_per_s"]["ratio_change_over_parent"] == 1.0
    assert row["sha"] == {"parent": "a", "change": "a", "equal": False}
    assert row["max_rel_diff"] == 0.25
    assert "max_rel_diff" not in report(runs, {})["w"]["model"]


def test_traced_names_the_sites_that_hold_what_forward_left():
    def forward():
        big = [np.arange(100_000.0) for _ in range(3)]
        small = np.arange(50_000.0)
        return big, small

    out, held, peak, sites = traced(forward, lambda out: out[0].clear())
    here = "tests/test_bench_ab.py:"
    assert len(sites) <= TOP_SITES
    assert [site[0].startswith(here) for site in sites[:2]] == [True, True]
    assert sites[0][1] == pytest.approx(2.4, rel=0.01)     # 3 x 800 kB
    assert sites[1][1] == pytest.approx(0.4, rel=0.01)
    assert held == pytest.approx(2.8, rel=0.01) and peak >= held


def test_recurrence_probe_times_every_lockstep_shape_and_keeps_dz():
    import emodarts.ops as ops
    from types import SimpleNamespace
    from emodarts import (SearchConfig, build_supernet, speaker_cv_split,
                          synth_dataset)

    dims = (8, 8)
    config = SearchConfig(C=1, N=1, B_cnn=1, B_seqnn=1, channels=2,
                          hidden=4, batch_size=4, baseline_lstm=8)
    dataset = synth_dataset(5, 1, dims=dims, seed=3)
    ctx = SimpleNamespace(
        seed=3, config=config, dataset=dataset,
        spec=SimpleNamespace(dims=dims),
        fold=speaker_cv_split(dataset, n_folds=5, seed=3)[0],
        net=build_supernet(config, np.random.default_rng(3), input_hw=dims))
    table, recurrence = dict(ops._RECURRENT_TABLE), ops._recurrence
    arrays = {}
    out = bench_ab.recurrence(ctx, arrays, reps=2)
    assert ops._RECURRENT_TABLE == table and ops._recurrence is recurrence
    # the full scope: LSTM and RNN stacks 4, 3, 2, 2, 1, 1 deep
    assert sorted(out) == ["baseline_lstm_k1", "lstm_k1", "lstm_k2", "lstm_k4",
                           "lstm_k6", "rnn_k1", "rnn_k2", "rnn_k4", "rnn_k6"]
    assert out["baseline_lstm_k1"]["w"][1] == 4 * 8
    for entry, row in out.items():
        assert row["fwd_ms"] > 0 and row["vjp_ms"] > 0
        k = int(entry.rsplit("_k", 1)[1])
        h, dz, dx, *rest = arrays[entry]
        dw, db = rest[:k], rest[k:]
        assert len(db) == k and dx.shape == tuple(row["x"])
        assert h.shape[0] == k and dz.shape == (k, h.shape[2], h.shape[1],
                                                row["w"][1])
        # the dz kept is the one the vjp summed into db
        want = dz.reshape(k, -1, dz.shape[-1]).sum(axis=1)
        assert np.stack(db).tobytes() == want.tobytes()
