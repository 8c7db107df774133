"""Supernet wiring: reduction placement, bridge semantics, parameter
partition, and end-to-end differentiability."""

import numpy as np
import pytest

from emodarts import ContractViolation, Tensor
from emodarts.config import SearchConfig
from emodarts.supernet import (FactorizedReduce, Supernet, build_supernet,
                               flatten_bridge, reduction_positions)


def rng(s=0):
    return np.random.default_rng(s)


def small_config(**kw):
    base = dict(C=2, N=1, B_cnn=2, B_seqnn=2, channels=4, hidden=8,
                seq_scope=("lstm_1", "rnn_1"), epochs=2, batch_size=4)
    base.update(kw)
    return SearchConfig(**base)


@pytest.mark.parametrize("c,want", [
    (1, {0}), (2, {0, 1}), (3, {1, 2}), (4, {1, 2}), (6, {2, 4}), (0, set())])
def test_reduction_positions(c, want):
    assert reduction_positions(c) == want


def test_flatten_bridge_shape_and_layout():
    x = Tensor(rng(1).normal(size=(2, 64, 8, 8)))
    out = flatten_bridge(x)
    assert out.shape == (2, 8, 512)
    # row t of the feature map becomes time step t, channels unrolled first
    np.testing.assert_array_equal(
        out.data[1, 3], x.data[1, :, 3, :].reshape(-1))


def test_flatten_bridge_is_invertible():
    x = rng(2).normal(size=(3, 5, 4, 6))
    out = flatten_bridge(Tensor(x))
    back = out.data.reshape(3, 4, 5, 6).transpose(0, 2, 1, 3)
    np.testing.assert_array_equal(back, x)


def test_supernet_forward_shapes_and_probabilities():
    net = build_supernet(small_config(), rng(3), input_hw=(16, 16))
    x = Tensor(rng(4).normal(size=(2, 1, 16, 16)))
    probs = net(x)
    assert probs.shape == (2, 4)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-9)
    assert np.all(probs.data >= 0)


def test_alpha_tables_exist_only_for_present_cell_kinds():
    # C=1 puts the single CNN cell at the reduction position, so there is
    # no normal-cell table; 2 + 2 edges -> 4 alpha vectors in total
    cfg = small_config(C=1, N=1, B_cnn=1, B_seqnn=1)
    net = build_supernet(cfg, rng(5), input_hw=(8, 8))
    assert net.alpha("cnn_normal") is None
    assert net.alpha("cnn_reduce") is not None
    assert net.alpha("seqnn") is not None
    total_rows = sum(a.shape[0] for a in net.arch_params())
    assert total_rows == 4


def test_alpha_table_widths_match_scopes():
    net = build_supernet(small_config(), rng(6), input_hw=(16, 16))
    assert net.alpha("cnn_reduce").shape == (5, 9)
    # seq scope is augmented with skip_connect and none
    assert net.alpha("seqnn").shape == (5, 4)


def test_param_partition_is_disjoint_and_exhaustive():
    net = build_supernet(small_config(), rng(7), input_hw=(16, 16))
    weights, alphas = net.params(), net.arch_params()
    wids, aids = {id(p) for p in weights}, {id(p) for p in alphas}
    assert not wids & aids
    assert len(weights) > 0 and len(alphas) == 2  # both CNN cells reduce
    for a in alphas:
        assert a.requires_grad


def test_no_seq_stage_when_n_is_zero():
    cfg = small_config(N=0)
    net = build_supernet(cfg, rng(8), input_hw=(16, 16))
    assert net.alpha("seqnn") is None
    x = Tensor(rng(9).normal(size=(2, 1, 16, 16)))
    assert net(x).shape == (2, 4)


def test_no_cnn_stage_when_c_is_zero():
    cfg = small_config(C=0)
    net = build_supernet(cfg, rng(10), input_hw=(8, 8))
    assert net.alpha("cnn_normal") is None and net.alpha("cnn_reduce") is None
    x = Tensor(rng(11).normal(size=(2, 1, 8, 8)))
    assert net(x).shape == (2, 4)


def test_backward_reaches_both_parameter_groups():
    net = build_supernet(small_config(), rng(12), input_hw=(16, 16))
    x = Tensor(rng(13).normal(size=(4, 1, 16, 16)))
    labels = np.array([0, 1, 2, 3])
    net.loss(x, labels).backward()
    weights, alphas = net.params(), net.arch_params()
    missing_w = [p for p in weights if p.grad is None]
    missing_a = [p for p in alphas if p.grad is None]
    assert not missing_w and not missing_a


def test_input_shape_contract():
    net = build_supernet(small_config(), rng(14), input_hw=(16, 16))
    with pytest.raises(ContractViolation):
        net(Tensor(np.zeros((2, 3, 16, 16))))
    with pytest.raises(ContractViolation):
        net(Tensor(np.zeros((2, 16, 16))))


def test_input_size_other_than_built_for_is_rejected():
    net = Supernet(small_config(), rng(14), input_hw=(16, 16))
    for shape in [(2, 1, 16, 12), (2, 1, 12, 16), (2, 1, 32, 32)]:
        with pytest.raises(ContractViolation):
            net(Tensor(np.zeros(shape)))
    assert net(Tensor(np.zeros((2, 1, 16, 16)))).shape == (2, 4)


def test_all_parameters_exist_before_the_first_forward():
    net = build_supernet(small_config(), rng(20), input_hw=(16, 16))
    n_params = len(net.params())
    assert net.head is not None and len(net.seq_cells) == 1
    net(Tensor(rng(21).normal(size=(2, 1, 16, 16))))
    assert len(net.params()) == n_params


def test_spatial_sizes_quarter_through_two_reductions():
    cfg = small_config(C=2, N=1)
    net = build_supernet(cfg, rng(15), input_hw=(32, 32))
    # C=2 marks both cells as reduction cells: 32 -> 16 -> 8
    x = Tensor(rng(16).normal(size=(1, 1, 32, 32)))
    s = net.stem(x)
    s0 = s1 = s
    sizes = []
    for pre0, pre1, cell in zip(net.cnn_pre0, net.cnn_pre1, net.cnn_cells):
        table = net.alpha("cnn_reduce" if cell.reduction else "cnn_normal")
        out = cell([pre0(s0), pre1(s1)], table)
        sizes.append(out.shape[2:])
        s0, s1 = s1, out
    assert sizes == [(16, 16), (8, 8)]


def test_odd_map_before_a_factorized_reduce_is_rejected():
    # C=3 reduces at cells 1 and 2; cell 2's FactorizedReduce halves the
    # unreduced 15-row map that cell 1 reduced
    cfg = small_config(C=3, N=1, B_cnn=1, B_seqnn=1)
    with pytest.raises(ContractViolation, match=r"input_hw \(15, 16\).*15x16"):
        build_supernet(cfg, rng(22), input_hw=(15, 16))
    net = build_supernet(cfg, rng(22), input_hw=(16, 16))
    assert net(Tensor(np.zeros((2, 1, 16, 16)))).shape == (2, 4)


def test_factorized_reduce_halves_and_keeps_channels():
    fr = FactorizedReduce(6, 10, rng(17), affine=False)
    out = fr(Tensor(rng(18).normal(size=(2, 6, 12, 12))))
    assert out.shape == (2, 10, 6, 6)


def test_supernet_construction_is_seed_deterministic():
    a = build_supernet(small_config(), rng(19), input_hw=(16, 16))
    b = build_supernet(small_config(), rng(19), input_hw=(16, 16))
    for pa, pb in zip(a.params() + a.arch_params(),
                      b.params() + b.arch_params()):
        np.testing.assert_array_equal(pa.data, pb.data)
