"""Speaker-disjoint folds, baseline models, fold runners, study sweeps,
and the CSV writers."""

import csv
import gc
import re
import weakref

import numpy as np
import pytest

import emodarts.harness as harness
from emodarts.cell import augment_scope
from emodarts.config import SearchConfig
from emodarts.derived import evaluate, train_derived
from emodarts.errors import ContractViolation, NumericFault
from emodarts.features import Dataset, synth_dataset
from emodarts.genome import Genome
from emodarts.harness import (BASELINE_KINDS, RESULT_COLUMNS, SCATTER_COLUMNS,
                              SCOPE_OPS, STUDY_SCOPES, Baseline, FoldResult,
                              fold_seed, run_fold, speaker_cv_split, study,
                              write_results_csv, write_scatter_csv)
from emodarts.ops import SEQNN_OPS, count_params
from emodarts.tensor import Tensor, cross_entropy
from emodarts import metrics


def _index_dataset(labels, speakers):
    labels = np.asarray(labels)
    n_spk = int(np.max(speakers)) + 1
    return Dataset(features=np.zeros((len(labels), 4, 4)),
                   labels=labels,
                   speakers=np.asarray(speakers),
                   class_names=[f"c{k}" for k in range(int(labels.max()) + 1)],
                   speaker_ids=[f"s{i}" for i in range(n_spk)])


def _balanced(n_speakers, per_class, n_classes=4):
    labels, speakers = [], []
    for s in range(n_speakers):
        for k in range(n_classes):
            labels += [k] * per_class
            speakers += [s] * per_class
    return _index_dataset(labels, speakers)


class TestSpeakerCvSplit:
    def test_partition_exact(self):
        ds = _balanced(10, 5)
        for f in speaker_cv_split(ds, n_folds=5, seed=0):
            merged = np.sort(np.concatenate([f.train_idx, f.val_idx,
                                             f.test_idx]))
            assert np.array_equal(merged, np.arange(len(ds)))

    def test_speaker_disjoint(self):
        ds = _balanced(10, 5)
        for f in speaker_cv_split(ds, n_folds=5, seed=1):
            held = set(np.asarray(ds.speakers)[f.test_idx].tolist())
            seen = set(np.asarray(ds.speakers)[
                np.concatenate([f.train_idx, f.val_idx])].tolist())
            assert held == set(f.test_speakers)
            assert not (held & seen)

    def test_every_speaker_held_out_once(self):
        ds = _balanced(11, 3)
        folds = speaker_cv_split(ds, n_folds=5, seed=2)
        all_held = [s for f in folds for s in f.test_speakers]
        assert sorted(all_held) == list(range(11))

    def test_train_side_is_pool_100_to_70(self):
        # 12 equal speakers over 6 folds: each fold holds out 20 samples,
        # leaving a pool of exactly 100, of which exactly 70 go to training
        ds = _balanced(12, 10, n_classes=1)
        for f in speaker_cv_split(ds, n_folds=6, seed=3):
            assert len(f.test_idx) == 20
            assert len(f.train_idx) == 70
            assert len(f.val_idx) == 30

    def test_global_largest_remainder_target(self):
        ds = _balanced(7, 3)
        for f in speaker_cv_split(ds, n_folds=5, seed=4):
            pool = len(f.train_idx) + len(f.val_idx)
            assert len(f.train_idx) == int(round(0.7 * pool))

    def test_stratified_within_one(self):
        ds = _balanced(10, 7)
        labels = np.asarray(ds.labels)
        speakers = np.asarray(ds.speakers)
        for f in speaker_cv_split(ds, n_folds=5, seed=5):
            pool = np.concatenate([f.train_idx, f.val_idx])
            train = set(f.train_idx.tolist())
            for k in set(labels[pool].tolist()):
                for s in set(speakers[pool].tolist()):
                    grp = [i for i in pool.tolist()
                           if labels[i] == k and speakers[i] == s]
                    if not grp:
                        continue
                    got = sum(1 for i in grp if i in train)
                    exact = 0.7 * len(grp)
                    assert np.floor(exact) <= got <= np.ceil(exact)

    def test_balanced_groups_for_equal_speakers(self):
        ds = _balanced(10, 4)
        sizes = [len(f.test_idx) for f in speaker_cv_split(ds, n_folds=5)]
        assert sizes == [32] * 5

    def test_heavy_speakers_spread_first(self):
        # speaker 7 has the most samples, so it opens group 0
        speakers = [7] * 40 + [s for s in range(9) for _ in range(10)]
        ds = _index_dataset([0] * len(speakers), speakers)
        folds = speaker_cv_split(ds, n_folds=5, seed=0)
        assert 7 in folds[0].test_speakers

    def test_deterministic(self):
        ds = _balanced(10, 6)
        a = speaker_cv_split(ds, n_folds=5, seed=11)
        b = speaker_cv_split(ds, n_folds=5, seed=11)
        c = speaker_cv_split(ds, n_folds=5, seed=12)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.train_idx, fb.train_idx)
            assert np.array_equal(fa.val_idx, fb.val_idx)
        assert any(not np.array_equal(fa.train_idx, fc.train_idx)
                   for fa, fc in zip(a, c))

    def test_too_few_speakers(self):
        with pytest.raises(ContractViolation):
            speaker_cv_split(_balanced(6, 2), n_folds=7)

    def test_too_few_folds(self):
        with pytest.raises(ContractViolation):
            speaker_cv_split(_balanced(6, 2), n_folds=1)


class TestBaseline:
    def _cfg(self, **kw):
        base = dict(C=1, N=1, channels=4, hidden=8, epochs=2, batch_size=8,
                    baseline_channels=8, baseline_dense=64, baseline_lstm=128)
        base.update(kw)
        return SearchConfig(**base)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_shapes(self, kind):
        cfg = self._cfg(baseline_lstm=16, baseline_dense=16)
        model = Baseline(kind, cfg, seed=0, input_hw=(32, 32))
        x = Tensor(np.random.default_rng(0).normal(size=(3, 1, 32, 32)))
        logits = model.forward_logits(x)
        assert logits.shape == (3, 4)
        probs = model.forward(Tensor(x.data.copy()))
        assert np.allclose(probs.data.sum(axis=1), 1.0)

    def test_cnn_param_count(self):
        # conv 8*1*2*2+8 = 40; 32x32 -> conv(k2,s2,p2) 18x18 -> pool 9x9;
        # dense 648*64+64 = 41536; head 64*4+4 = 260
        model = Baseline("cnn", self._cfg(), seed=0, input_hw=(32, 32))
        assert count_params(model) == 40 + 41536 + 260

    def test_cnn_lstm_param_count(self):
        # adds two LSTM directions: (72+128)*512+512 each, dense input 256
        model = Baseline("cnn_lstm", self._cfg(), seed=0, input_hw=(32, 32))
        expect = 40 + 2 * ((72 + 128) * 512 + 512) + (256 * 64 + 64) + 260
        assert count_params(model) == expect

    def test_att_adds_attention_params(self):
        base = count_params(Baseline("cnn_lstm", self._cfg(), 0, (32, 32)))
        att = count_params(Baseline("cnn_lstm_att", self._cfg(), 0, (32, 32)))
        # attention on 256-wide states: W 256x256, b 256, v 256
        assert att - base == 256 * 256 + 256 + 256

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_gradients_reach_all_params(self, kind):
        cfg = self._cfg(baseline_lstm=8, baseline_dense=8, dropout=0.0)
        model = Baseline(kind, cfg, seed=1, input_hw=(16, 16))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 1, 16, 16)))
        cross_entropy(model.forward_logits(x), np.array([0, 1, 2, 3])).backward()
        for p in model.params():
            assert p.grad is not None

    def test_eval_mode_is_deterministic(self):
        cfg = self._cfg(baseline_lstm=8, baseline_dense=8, dropout=0.5)
        model = Baseline("cnn", cfg, seed=2, input_hw=(16, 16))
        x = np.random.default_rng(2).normal(size=(4, 1, 16, 16))
        model.set_training(False)
        a = model.forward_logits(Tensor(x)).data
        b = model.forward_logits(Tensor(x)).data
        assert np.array_equal(a, b)
        model.set_training(True)
        c = model.forward_logits(Tensor(x)).data
        d = model.forward_logits(Tensor(x)).data
        assert not np.array_equal(c, d)    # dropout masks differ

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            Baseline("mlp", self._cfg(), 0, (16, 16))

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    @pytest.mark.parametrize("shape", [(2, 1, 12, 12), (2, 1, 16, 12),
                                       (2, 2, 16, 16), (1, 16, 16)])
    def test_rejects_input_that_is_not_input_hw(self, kind, shape):
        # the cnn kind used to fail in numpy's matmul, the LSTM kinds on
        # the LSTM weight shapes; now every kind names both sizes
        cfg = self._cfg(baseline_lstm=8, baseline_dense=8)
        model = Baseline(kind, cfg, seed=4, input_hw=(16, 16))
        with pytest.raises(ContractViolation, match=re.escape(
                f"expects (B, 1, 16, 16) input, got {shape}")):
            model.forward_logits(Tensor(np.zeros(shape)))

    def test_trains_with_shared_loop(self):
        cfg = self._cfg(baseline_lstm=8, baseline_dense=8, epochs=2,
                        dropout=0.0)
        model = Baseline("cnn", cfg, seed=3, input_hw=(16, 16))
        ds = synth_dataset(5, 2, dims=(16, 16), seed=3)
        hist = train_derived(model, (ds.features, ds.labels), cfg)
        assert len(hist) == 2
        ua_v, wa_v = evaluate(model, (ds.features, ds.labels))
        assert 0.0 <= ua_v <= 100.0 and 0.0 <= wa_v <= 100.0


def _tiny_cfg(**kw):
    base = dict(C=1, N=1, B_cnn=1, B_seqnn=1, channels=4, hidden=8,
                epochs=2, batch_size=8, dropout=0.0,
                baseline_channels=4, baseline_dense=8, baseline_lstm=8,
                seq_scope=("rnn_1",))
    base.update(kw)
    return SearchConfig(**base)


@pytest.fixture(scope="module")
def tiny_ds():
    return synth_dataset(5, 2, dims=(16, 16), seed=0)


class TestRunFold:
    def test_emodarts_mode(self, tiny_ds):
        split = speaker_cv_split(tiny_ds, n_folds=5, seed=0)[0]
        res = run_fold(tiny_ds, split, _tiny_cfg(), scope="RNN Only",
                       seed=7, train_epochs=2)
        assert res.scope == "RNN Only" and res.fold == 0 and res.seed == 7
        assert isinstance(res.genome, Genome)
        assert res.genome.scope == list(augment_scope(SCOPE_OPS["RNN Only"]))
        assert res.params > 0
        assert 0.0 <= res.ua <= 100.0 and 0.0 <= res.wa <= 100.0

    def test_baseline_mode(self, tiny_ds):
        split = speaker_cv_split(tiny_ds, n_folds=5, seed=0)[1]
        res = run_fold(tiny_ds, split, _tiny_cfg(), scope="cnn", seed=3,
                       train_epochs=2)
        assert res.scope == "cnn" and res.fold == 1
        assert res.params > 0 and res.genome is None
        assert res.degenerate_cnn is False and res.degenerate_seqnn is False

    def test_unknown_scope(self, tiny_ds):
        split = speaker_cv_split(tiny_ds, n_folds=5, seed=0)[0]
        with pytest.raises(ContractViolation):
            run_fold(tiny_ds, split, _tiny_cfg(), scope="GRU Only", seed=0)


class TestStudy:
    def test_scope_catalog(self):
        assert STUDY_SCOPES == ["emoDARTS", "LSTM Only", "LSTM-Att. Only",
                                "RNN Only", "RNN-Att. Only"]
        assert SCOPE_OPS["emoDARTS"] == tuple(SEQNN_OPS)
        for name, ops in SCOPE_OPS.items():
            assert set(ops) <= set(SEQNN_OPS), name

    def test_fold_seed_stable_and_distinct(self):
        seeds = {fold_seed(0, s, f) for s in STUDY_SCOPES for f in range(5)}
        assert len(seeds) == 25
        assert fold_seed(0, "emoDARTS", 3) == fold_seed(0, "emoDARTS", 3)
        assert fold_seed(0, "cnn", 0) != fold_seed(0, "emoDARTS", 0)

    def test_baseline_study_rows(self, tiny_ds):
        results, scatter = study(tiny_ds, _tiny_cfg(epochs=1), n_folds=5,
                                 seed=0, scopes=["cnn"], train_epochs=1)
        assert len(results) == 5
        assert all(r.scope == "cnn" for r in results)
        assert [r.fold for r in results] == [0, 1, 2, 3, 4]
        uas = np.array([r.ua for r in results])
        assert scatter[0]["mean_ua"] == pytest.approx(float(uas.mean()))
        assert scatter[0]["std_ua"] == pytest.approx(float(uas.std()))

    def test_jobs_match_serial(self, tmp_path):
        ds = synth_dataset(5, 2, dims=(16, 16), seed=0)
        kw = dict(n_folds=2, seed=1, scopes=["RNN Only", "cnn"],
                  search_epochs=1, train_epochs=1)
        serial, _ = study(ds, _tiny_cfg(epochs=1), jobs=1, **kw)
        parallel, _ = study(ds, _tiny_cfg(epochs=1), jobs=2, **kw)
        assert [(r.scope, r.ua, r.wa, r.params) for r in serial] \
            == [(r.scope, r.ua, r.wa, r.params) for r in parallel]
        assert serial[0].genome is not None and serial[-1].genome is None
        write_results_csv(serial, tmp_path / "serial.csv")
        write_results_csv(parallel, tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() \
            == (tmp_path / "parallel.csv").read_bytes()
        alive = weakref.ref(ds)
        del ds
        gc.collect()
        assert alive() is None     # no module state keeps the dataset

    def test_jobs_start_at_most_one_worker_per_fold_run(self, tiny_ds,
                                                        monkeypatch):
        built = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                built.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_shared", ())
        kw = dict(n_folds=2, seed=0, scopes=["cnn"], train_epochs=1)
        results, _ = study(tiny_ds, _tiny_cfg(epochs=1), jobs=64, **kw)
        assert built == [2] and len(results) == 2
        study(tiny_ds, _tiny_cfg(epochs=1), jobs=1, **kw)
        assert built == [2]

    def test_unknown_scope_rejected_before_any_fold(self, tiny_ds,
                                                    monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_fold", lambda *a, **k: ran.append(a))
        with pytest.raises(ContractViolation, match="GRU Only"):
            study(tiny_ds, _tiny_cfg(epochs=1), n_folds=2, seed=0,
                  scopes=["cnn", "GRU Only"])
        assert ran == []

    def test_failed_fold_becomes_na(self, tiny_ds, monkeypatch):
        real = harness.run_fold

        def sometimes(dataset, split, config, scope, seed, **kw):
            if split.fold == 1:
                raise NumericFault("loss went non-finite", history=[])
            return real(dataset, split, config, scope, seed, **kw)

        monkeypatch.setattr(harness, "run_fold", sometimes)
        results, scatter = study(tiny_ds, _tiny_cfg(epochs=1), n_folds=2,
                                 seed=0, scopes=["cnn"], train_epochs=1)
        assert results[1].ua is None and results[1].params is None
        assert results[0].ua is not None
        assert scatter[0]["mean_ua"] == pytest.approx(results[0].ua)
        assert scatter[0]["std_ua"] == 0.0

    def test_all_failed_scope_is_na(self, tiny_ds, monkeypatch):
        monkeypatch.setattr(
            harness, "run_fold",
            lambda *a, **k: (_ for _ in ()).throw(NumericFault("bad")))
        results, scatter = study(tiny_ds, _tiny_cfg(epochs=1), n_folds=2,
                                 seed=0, scopes=["cnn"])
        assert all(r.ua is None for r in results)
        assert scatter[0]["mean_ua"] is None


class TestCsvWriters:
    def _rows(self):
        return [
            FoldResult("emoDARTS", 0, 61.25, 63.0, 12345, False, True, 42),
            FoldResult("emoDARTS", 1, None, None, None, False, False, 43),
        ]

    def test_results_csv(self, tmp_path):
        p = tmp_path / "results.csv"
        write_results_csv(self._rows(), p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULT_COLUMNS
        assert rows[1] == ["emoDARTS", "0", "61.25", "63.0", "12345", "0",
                           "1", "42"]
        assert rows[2][2:5] == ["NA", "NA", "NA"]

    def test_scatter_csv(self, tmp_path):
        p = tmp_path / "scatter.csv"
        write_scatter_csv([{"scope": "RNN Only", "mean_ua": 55.5,
                            "std_ua": 1.25, "params": 1000.0},
                           {"scope": "LSTM Only", "mean_ua": None,
                            "std_ua": None, "params": None}], p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SCATTER_COLUMNS
        assert rows[1] == ["RNN Only", "55.5", "1.25", "1000.0"]
        assert rows[2] == ["LSTM Only", "NA", "NA", "NA"]

    def test_no_timestamps_in_outputs(self, tmp_path):
        p = tmp_path / "results.csv"
        write_results_csv(self._rows(), p)
        text = p.read_text()
        assert "202" not in text.split("\n")[0]    # no date-like header col


class TestMetricReexport:
    def test_same_functions(self):
        assert harness.ua is metrics.ua
        assert harness.wa is metrics.wa
