"""Bilevel loop tests on a tiny separable dataset."""

import numpy as np
import pytest

from emodarts import ContractViolation, NumericFault
from emodarts.config import SearchConfig
from emodarts.metrics import ua, wa
from emodarts.optim import CosineSchedule, cosine_lr
from emodarts.search import (HISTORY_COLUMNS, _frozen, _RunningSplit,
                             alpha_entropy, search, write_history_csv)
from emodarts.supernet import build_supernet
from emodarts.tensor import Tensor, cross_entropy


def tiny_config(**kw):
    base = dict(C=1, N=1, B_cnn=1, B_seqnn=1, channels=4, hidden=8,
                seq_scope=("rnn_1",), epochs=3, batch_size=8, seed=5)
    base.update(kw)
    return SearchConfig(**base)


def test_config_rejects_negative_seed():
    # numpy seeds only non-negative integers
    with pytest.raises(ContractViolation, match="seed"):
        tiny_config(seed=-1)


def blobs(n, seed, hw=8):
    """Class k gets a bright band in row block k; trivially separable."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 4, size=n)
    x = 0.1 * rng.normal(size=(n, hw, hw))
    for i, cls in enumerate(y):
        x[i, 2 * cls:2 * cls + 2, :] += 2.0
    return x, y


@pytest.fixture(scope="module")
def run():
    cfg = tiny_config()
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    hist = search(net, blobs(32, 1), blobs(32, 2), cfg)
    return cfg, net, hist


def test_history_has_one_row_per_epoch(run):
    cfg, _, hist = run
    assert [h.epoch for h in hist] == list(range(cfg.epochs))


def test_lr_column_follows_cosine_schedule(run):
    cfg, _, hist = run
    sched = CosineSchedule(cfg.lr_max, cfg.lr_min, cfg.epochs - 1)
    for h in hist:
        assert h.lr == pytest.approx(cosine_lr(sched, h.epoch))
    assert hist[0].lr == pytest.approx(cfg.lr_max)
    assert hist[-1].lr == pytest.approx(cfg.lr_min)


def test_entropy_starts_near_uniform(run):
    _, _, hist = run
    # alpha init is normal(0, 1e-3): softmax is almost uniform
    assert hist[0].entropy_cnn == pytest.approx(np.log(9), abs=1e-3)
    assert hist[0].entropy_seqnn == pytest.approx(np.log(3), abs=1e-3)


def test_alpha_tables_move_during_search(run):
    cfg, net, _ = run
    fresh = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    moved = [not np.array_equal(a.data, b.data)
             for a, b in zip(net.arch_params(), fresh.arch_params())]
    assert all(moved)


def test_history_csv_format(run, tmp_path):
    _, _, hist = run
    path = tmp_path / "history.csv"
    write_history_csv(hist, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 1 + len(hist)
    assert "seconds" not in lines[0]
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == len(HISTORY_COLUMNS)


def test_search_is_deterministic_given_seed():
    def once():
        cfg = tiny_config(epochs=2)
        net = build_supernet(cfg, np.random.default_rng(cfg.seed),
                             input_hw=(8, 8))
        hist = search(net, blobs(24, 3), blobs(24, 4), cfg)
        alpha_bytes = b"".join(a.data.tobytes() for a in net.arch_params())
        rows = tuple((h.search_loss, h.train_loss, h.train_ua) for h in hist)
        return alpha_bytes, rows

    assert once() == once()


def test_steps_isolate_parameter_groups():
    cfg = tiny_config(epochs=1)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    state = {}
    violations = []

    def snap_w():
        return b"".join(p.data.tobytes() for p in net.params())

    def snap_a():
        return b"".join(a.data.tobytes() for a in net.arch_params())

    def watch(ev):
        if ev["event"] == "pre_alpha":
            state["w"] = snap_w()
        elif ev["event"] == "post_alpha":
            if snap_w() != state["w"]:
                violations.append(("alpha step moved weights", ev["step"]))
        elif ev["event"] == "pre_weight":
            state["a"] = snap_a()
        elif ev["event"] == "post_weight":
            if snap_a() != state["a"]:
                violations.append(("weight step moved alphas", ev["step"]))

    search(net, blobs(24, 5), blobs(24, 6), cfg, on_step=watch)
    assert violations == []


def test_every_step_leaves_both_groups_without_gradients():
    # a gradient left on either group would add to that group's next step
    cfg = tiny_config(epochs=1)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    held = []

    def watch(ev):
        if ev["event"] in ("post_alpha", "post_weight"):
            held.extend(ev["event"] for p in net.params() + net.arch_params()
                        if p.grad is not None)

    search(net, blobs(24, 5), blobs(24, 6), cfg, on_step=watch)
    assert held == []


def test_grad_clip_bounds_the_weight_step():
    # plain SGD at rate 1: a weight step moves the weights by the clipped
    # gradient, whose global norm is at most grad_clip
    cfg = tiny_config(epochs=1, grad_clip=1e-3, lr_max=1.0, lr_min=1.0,
                      momentum=0.0, weight_decay=0.0)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    before, moves = [], []

    def watch(ev):
        if ev["event"] == "pre_weight":
            before[:] = [p.data.copy() for p in net.params()]
        elif ev["event"] == "post_weight":
            moves.append(np.sqrt(sum(((p.data - b) ** 2).sum()
                                     for p, b in zip(net.params(), before))))

    search(net, blobs(24, 5), blobs(24, 6), cfg, on_step=watch)
    assert moves and max(moves) <= 1e-3 * (1 + 1e-9)
    assert min(moves) > 0.5e-3      # the unclipped gradient is larger


def test_non_finite_loss_raises_numeric_fault_with_partial_history():
    cfg = tiny_config(epochs=4)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))

    def poison(ev):
        if ev["event"] == "post_weight" and ev["epoch"] == 1:
            net.stem.weight.data[:] = np.nan

    with pytest.raises(NumericFault) as err:
        search(net, blobs(24, 7), blobs(24, 8), cfg, on_step=poison)
    # the fault fires inside epoch 1, so only epoch 0 completed
    kept = err.value.history
    assert [h.epoch for h in kept] == [0]


@pytest.mark.parametrize("poisoned_after", ["post_alpha", "post_weight"])
def test_a_fault_in_either_step_unfreezes_both_groups(poisoned_after):
    # poisoned after a coefficient step, the weight step faults next, and
    # the other way round
    cfg = tiny_config(epochs=2)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    weights, alphas = net.params(), net.arch_params()

    def poison(ev):
        if ev["event"] == poisoned_after:
            net.stem.weight.data[:] = np.nan

    with pytest.raises(NumericFault, match="train" if poisoned_after ==
                       "post_alpha" else "search"):
        search(net, blobs(16, 7), blobs(16, 8), cfg, on_step=poison)
    assert all(p.requires_grad for p in weights + alphas)


def test_freezing_the_weights_leaves_the_coefficient_gradient_bit_equal():
    cfg = tiny_config(C=2, B_cnn=2)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    x, y = blobs(8, 13)
    weights, alphas = net.params(), net.arch_params()

    def coefficient_grads(frozen):
        with _frozen(frozen):
            cross_entropy(net.forward_logits(Tensor(x[:, None])), y).backward()
        grads = [a.grad for a in alphas]
        filled = [p.grad is not None for p in weights]
        for p in weights + alphas:
            p.grad = None
        return grads, filled

    free, filled = coefficient_grads([])
    frozen, skipped = coefficient_grads(weights)
    for a, b in zip(free, frozen):
        np.testing.assert_array_equal(a, b)
    assert all(filled) and not any(skipped)
    assert all(p.requires_grad for p in weights)


def test_shorter_stream_recycles():
    cfg = tiny_config(epochs=1, batch_size=4)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    steps = []
    search(net, blobs(16, 9), blobs(4, 10), cfg,
           on_step=lambda ev: steps.append(ev["step"])
           if ev["event"] == "post_weight" else None)
    # train has 4 batches, search has 1: the pair runs 4 steps
    assert steps == [0, 1, 2, 3]


def test_training_makes_progress_on_separable_data():
    cfg = tiny_config(epochs=20)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    hist = search(net, blobs(48, 11), blobs(48, 12), cfg)
    assert hist[-1].train_loss < hist[0].train_loss
    assert hist[-1].train_ua >= hist[0].train_ua + 20.0


def test_alpha_entropy_limits():
    assert alpha_entropy(np.zeros((3, 4))) == pytest.approx(np.log(4))
    assert alpha_entropy(np.array([[100.0, 0.0, 0.0]])) == pytest.approx(0.0, abs=1e-9)


def test_ua_wa_pinned_example():
    labels = np.array([0, 0, 0, 1])
    preds = np.zeros(4, dtype=int)
    assert wa(labels, preds) == pytest.approx(75.0)
    assert ua(labels, preds) == pytest.approx(50.0)


def test_search_steps_every_weight():
    # the whole network, SeqNN stage and head included, exists before the
    # optimizer groups are formed, so every weight moves and ends cleared
    cfg = tiny_config(epochs=1)
    net = build_supernet(cfg, np.random.default_rng(cfg.seed), input_hw=(8, 8))
    before = [p.data.copy() for p in net.params()]
    search(net, blobs(16, 3), blobs(16, 4), cfg)
    after = net.params()
    assert len(after) == len(before)
    for old, p in zip(before, after):
        assert not np.array_equal(old, p.data)
        assert p.grad is None


def test_tally_means_loss_over_steps_or_over_samples():
    by_step, by_sample = _RunningSplit(), _RunningSplit(by_sample=True)
    for tally in (by_step, by_sample):
        tally.add(1.0, np.array([0, 1, 2]), np.eye(4)[[0, 1, 2]])
        tally.add(3.0, np.array([3]), np.eye(4)[[3]])
    assert by_step.summary() == (2.0, 100.0)       # (1 + 3) / 2 steps
    assert by_sample.summary() == (1.5, 100.0)     # (3 * 1 + 3) / 4 samples
