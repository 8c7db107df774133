"""Derived-model tests: discrete cell arithmetic, training history shape,
and checkpoint round-trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from emodarts import ContractViolation, DataError, NumericFault, Tensor
from emodarts.cell import Cell, augment_scope
from emodarts.config import SearchConfig
from emodarts.derived import (CHECKPOINT_VERSION, TRAIN_COLUMNS, evaluate,
                              instantiate, load_checkpoint, save_checkpoint,
                              train_derived, write_train_csv)
from emodarts.genome import Genome, extract_genome
from emodarts.harness import Baseline
from emodarts.metrics import ua as ua_metric
from emodarts.metrics import wa as wa_metric
from emodarts.ops import CNN_OPS, SEQNN_OPS, count_params
from emodarts.supernet import build_supernet


def rng(s=0):
    return np.random.default_rng(s)


def searched_genome(**kw):
    base = dict(C=2, N=1, B_cnn=2, B_seqnn=2, channels=4, hidden=8,
                seq_scope=("lstm_1", "rnn_1"), epochs=1, batch_size=4)
    base.update(kw)
    cfg = SearchConfig(**base)
    net = build_supernet(cfg, rng(3), input_hw=(16, 16))
    return extract_genome(net), cfg


def blobs(n, seed, hw=16):
    r = np.random.default_rng(seed)
    y = r.integers(0, 4, size=n)
    x = 0.1 * r.normal(size=(n, hw, hw))
    for i, cls in enumerate(y):
        x[i, 4 * cls:4 * cls + 3, :] += 2.0
    return x, y


def discrete_cell(kind, edges, width, b, reduction):
    scope = CNN_OPS if kind == "cnn" else augment_scope(SEQNN_OPS)
    return Cell(kind, scope, width, b, reduction, rng(), retained=edges)


def test_derived_cell_sums_retained_edges():
    edges = [{"from_node": 0, "to_node": 2, "op": "skip_connect"},
             {"from_node": 1, "to_node": 2, "op": "skip_connect"}]
    cell = discrete_cell("seqnn", edges, width=6, b=1, reduction=False)
    a = Tensor(rng(1).normal(size=(2, 3, 6)))
    b = Tensor(rng(2).normal(size=(2, 3, 6)))
    np.testing.assert_allclose(cell([a, b]).data, a.data + b.data, rtol=1e-12)


def test_derived_cell_param_count_hand_sum():
    edges = [{"from_node": 0, "to_node": 2, "op": "sep_conv_3x3"},
             {"from_node": 1, "to_node": 2, "op": "skip_connect"}]
    cell = discrete_cell("cnn", edges, width=4, b=1, reduction=False)
    # sep_conv_3x3 with affine norms: 2 * (4*9 depthwise + 16 pointwise + 8 affine)
    assert count_params(cell) == 2 * (36 + 16 + 8)


def test_derived_cell_reduction_strides_input_edges_only():
    edges = [{"from_node": 0, "to_node": 2, "op": "skip_connect"},
             {"from_node": 1, "to_node": 2, "op": "skip_connect"},
             {"from_node": 1, "to_node": 3, "op": "skip_connect"},
             {"from_node": 2, "to_node": 3, "op": "skip_connect"}]
    cell = discrete_cell("cnn", edges, width=4, b=2, reduction=True)
    x = [Tensor(np.ones((1, 4, 8, 8))) for _ in range(2)]
    out = cell(x)
    assert out.shape == (1, 8, 4, 4)


def test_derived_cell_rejects_orphan_nodes():
    edges = [{"from_node": 0, "to_node": 2, "op": "skip_connect"}]
    with pytest.raises(ContractViolation):
        discrete_cell("cnn", edges, width=4, b=2, reduction=False)


def test_instantiate_forward_probabilities():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=7, input_hw=(16, 16))
    probs = model(Tensor(rng(4).normal(size=(3, 1, 16, 16))))
    assert probs.shape == (3, 4)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-9)


def test_instantiate_requires_needed_blueprints():
    genome, cfg = searched_genome()
    genome.cnn_reduce = []
    with pytest.raises(ContractViolation):
        instantiate(genome, cfg, seed=0, input_hw=(16, 16))


def test_derived_weights_are_fresh_per_seed():
    genome, cfg = searched_genome()
    m1 = instantiate(genome, cfg, seed=1, input_hw=(16, 16))
    m2 = instantiate(genome, cfg, seed=2, input_hw=(16, 16))
    diffs = [not np.array_equal(a.data, b.data)
             for a, b in zip(m1.params(), m2.params())]
    assert any(diffs)
    m3 = instantiate(genome, cfg, seed=1, input_hw=(16, 16))
    for a, b in zip(m1.params(), m3.params()):
        np.testing.assert_array_equal(a.data, b.data)


def test_dropout_only_in_training_mode():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=5, input_hw=(16, 16))
    x = Tensor(rng(6).normal(size=(2, 1, 16, 16)))
    model.set_training(False)
    a = model(x).data.copy()
    b = model(Tensor(x.data.copy())).data
    np.testing.assert_array_equal(a, b)      # eval mode is deterministic
    model.set_training(True)
    t1 = model(Tensor(x.data.copy())).data.copy()
    t2 = model(Tensor(x.data.copy())).data
    assert not np.array_equal(t1, t2)        # dropout masks differ


def test_train_history_columns_and_lr_endpoints(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=8, input_hw=(16, 16))
    hist = train_derived(model, blobs(24, 7), cfg, epochs=5)
    assert [h.epoch for h in hist] == list(range(5))
    assert hist[0].lr == pytest.approx(cfg.lr_max)
    assert hist[-1].lr == pytest.approx(cfg.lr_min)
    path = tmp_path / "train.csv"
    write_train_csv(hist, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRAIN_COLUMNS) == "epoch,loss,ua,lr"
    assert len(lines) == 6


def test_training_reduces_loss():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=9, input_hw=(16, 16))
    hist = train_derived(model, blobs(32, 8), cfg, epochs=12)
    assert hist[-1].loss < hist[0].loss


def test_non_finite_loss_raises_with_finished_epochs():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=0, input_hw=(16, 16))
    x, y = blobs(8, 12)
    with pytest.raises(NumericFault) as nan_corpus:
        train_derived(model, (np.full_like(x, np.nan), y), cfg, epochs=2)
    assert nan_corpus.value.history == []
    # one full batch per epoch at a huge rate: epoch 0 finishes, and its
    # step blows the weights up, so epoch 1's loss is not finite
    cfg = replace(cfg, lr_max=1e200, lr_min=1e200, batch_size=8)
    model = instantiate(genome, cfg, seed=0, input_hw=(16, 16))
    with np.errstate(all="ignore"), pytest.raises(NumericFault) as blown:
        train_derived(model, (x, y), cfg, epochs=3)
    assert [r.epoch for r in blown.value.history] == [0]
    assert np.isfinite(blown.value.history[0].loss)


def test_grad_clip_bounds_each_training_step():
    genome, cfg = searched_genome(grad_clip=1e-3, lr_max=1.0, lr_min=1.0,
                                  momentum=0.0, weight_decay=0.0,
                                  batch_size=8)
    model = instantiate(genome, cfg, seed=0, input_hw=(16, 16))
    before = [p.data.copy() for p in model.params()]
    train_derived(model, blobs(8, 13), cfg, epochs=1)   # a single step
    move = np.sqrt(sum(((p.data - b) ** 2).sum()
                       for p, b in zip(model.params(), before)))
    assert 0.5e-3 < move <= 1e-3 * (1 + 1e-9)


def test_evaluate_returns_percentages():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=10, input_hw=(16, 16))
    score_ua, score_wa = evaluate(model, blobs(16, 9))
    assert 0.0 <= score_ua <= 100.0
    assert 0.0 <= score_wa <= 100.0


def _derived_model(seed):
    genome, cfg = searched_genome()
    return instantiate(genome, cfg, seed=seed, input_hw=(16, 16))


def _baseline(seed):
    cfg = SearchConfig(C=1, N=1, channels=4, hidden=8, baseline_channels=4,
                       baseline_dense=8, baseline_lstm=8, batch_size=4)
    return Baseline("cnn_lstm", cfg, seed=seed, input_hw=(16, 16))


EVAL_MODELS = pytest.mark.parametrize("make", [_derived_model, _baseline],
                                      ids=["derived", "baseline"])


@EVAL_MODELS
@pytest.mark.parametrize("training", [True, False])
def test_evaluate_restores_state_when_a_batch_raises(make, training):
    model = make(15)
    model.set_training(training)
    params, count = model.params(), count_params(model)
    with pytest.raises(ContractViolation):
        evaluate(model, blobs(6, 16, hw=12))      # not the built-for size
    assert model.training is training
    assert all(p.requires_grad and p.grad is None for p in params)
    assert model.params() == params
    assert count_params(model) == count


@EVAL_MODELS
def test_evaluate_scores_the_argmax_of_graph_logits(make):
    model = make(18)
    train_derived(model, blobs(16, 19), model.config, epochs=1)
    x, y = blobs(20, 20)
    scores = evaluate(model, (x, y), batch_size=6)
    model.set_training(False)
    logits = model.forward_logits(Tensor(x[:, None]))
    assert logits.requires_grad
    preds = logits.data.argmax(axis=1)
    assert scores == (ua_metric(y, preds), wa_metric(y, preds))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    with pytest.raises(ContractViolation, match="batch_size >= 1"):
        evaluate(_derived_model(23), blobs(8, 24), batch_size=batch_size)


def test_evaluate_forward_builds_no_graph(monkeypatch):
    model = _derived_model(21)
    outs = []

    def forward(x):
        outs.append(type(model).forward_logits(model, x))
        return outs[-1]

    monkeypatch.setattr(model, "forward_logits", forward)
    evaluate(model, blobs(8, 22), batch_size=3)
    assert len(outs) == 3
    assert not any(t.requires_grad or t._parents for t in outs)
    assert all(p.requires_grad for p in model.params())


def test_checkpoint_round_trip_restores_state(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=11, input_hw=(16, 16))
    train_derived(model, blobs(16, 10), cfg, epochs=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded, genome2, cfg2, seed2 = load_checkpoint(path)
    assert seed2 == 11
    assert genome2 == genome
    assert cfg2.to_dict() == cfg.to_dict()
    for a, b in zip(model.params(), loaded.params()):
        np.testing.assert_array_equal(a.data, b.data)
    for a, b in zip(model.buffers(), loaded.buffers()):
        np.testing.assert_array_equal(a, b)
    x = rng(11).normal(size=(4, 1, 16, 16))
    model.set_training(False)
    loaded.set_training(False)
    np.testing.assert_array_equal(model(Tensor(x)).data,
                                  loaded(Tensor(x)).data)


def test_checkpoint_keeps_frozen_parameters(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=13, input_hw=(16, 16))
    train_derived(model, blobs(16, 14), cfg, epochs=1)
    model.stem.weight.requires_grad = False
    model.head.bias.requires_grad = False
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)[0]
    x = rng(13).normal(size=(4, 1, 16, 16))
    model.set_training(False)
    loaded.set_training(False)
    np.testing.assert_array_equal(model.forward_logits(Tensor(x)).data,
                                  loaded.forward_logits(Tensor(x)).data)


def test_checkpoint_header_is_single_json_line(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=12, input_hw=(16, 16))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        tail = fh.read()
    assert {"format", "version", "genome", "config", "seed",
            "input_hw"} <= set(header)
    n_state = sum(p.size for p in model.params()) + \
        sum(b.size for b in model.buffers())
    assert len(tail) == 8 * n_state


def test_checkpoint_rejects_corruption(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=13, input_hw=(16, 16))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(raw[:-16])
    with pytest.raises(DataError):
        load_checkpoint(clipped)
    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(DataError):
        load_checkpoint(garbled)
    # a JSON string holding every key name is not a header object
    garbled.write_bytes(b'"format version genome config seed input_hw"\n'
                        + raw.split(b"\n", 1)[1])
    with pytest.raises(DataError):
        load_checkpoint(garbled)


def _rewrite_header(src, dst, edit):
    head, payload = src.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    dst.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(input_hw=[16]),
    lambda h: h.update(input_hw=[16, 0]),
    lambda h: h.update(input_hw=[16.0, 16]),
    lambda h: h.update(seed="x"),
    lambda h: h.update(seed=True),
    lambda h: h.update(version=1),
    lambda h: h.update(genome=[]),
    lambda h: h.update(config="C=2"),
    lambda h: h["config"].update(time_pool="mean"),
    lambda h: h["config"].update(C=2.7),
    lambda h: h["config"].update(seq_scope=["lstm_1", "lstm_1", "none"]),
], ids=["hw-one-value", "hw-zero", "hw-float", "seed-str", "seed-bool",
        "version-1", "genome-list", "config-str", "config-time-pool",
        "config-float-C", "config-repeated-scope"])
def test_checkpoint_rejects_bad_header_fields(tmp_path, edit):
    genome, cfg = searched_genome()
    path = tmp_path / "model.ckpt"
    save_checkpoint(instantiate(genome, cfg, seed=15, input_hw=(16, 16)), path)
    bad = tmp_path / "bad.ckpt"
    _rewrite_header(path, bad, edit)
    with pytest.raises(DataError):
        load_checkpoint(bad)
    _rewrite_header(path, bad, lambda h: None)   # the untouched header loads
    load_checkpoint(bad)


def test_checkpoint_header_carries_its_own_version(tmp_path):
    genome, cfg = searched_genome()
    path = tmp_path / "model.ckpt"
    save_checkpoint(instantiate(genome, cfg, seed=16, input_hw=(16, 16)), path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["version"] == CHECKPOINT_VERSION == 2
    assert "time_pool" not in header["config"]


def test_input_size_other_than_built_for_is_rejected():
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=17, input_hw=(16, 16))
    for shape in [(2, 1, 16, 12), (2, 1, 12, 16), (2, 1, 32, 32)]:
        with pytest.raises(ContractViolation):
            model(Tensor(np.zeros(shape)))
    assert model(Tensor(np.zeros((2, 1, 16, 16)))).shape == (2, 4)


def test_buffers_follow_params_in_payload(tmp_path):
    genome, cfg = searched_genome()
    model = instantiate(genome, cfg, seed=14, input_hw=(16, 16))
    marker = 123.456
    model.buffers()[-1][...] = marker
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        fh.readline()
        flat = np.frombuffer(fh.read(), dtype="<f8")
    last = model.buffers()[-1]
    np.testing.assert_array_equal(flat[-last.size:], np.full(last.size, marker))
