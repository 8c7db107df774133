"""Cell topology, mixing, and discretization tests."""

import numpy as np
import pytest

from emodarts import ContractViolation, Tensor
from emodarts.cell import Cell, augment_scope, discretize_edge, num_edges
from emodarts.ops import CNN_OPS, RecurrentStack, SkipConnect, count_params


def rng(s=0):
    return np.random.default_rng(s)


def alpha_for(cell, seed=1, scale=1e-3):
    return Tensor(np.random.default_rng(seed).normal(
        0.0, scale, size=(len(cell.edges), len(cell.scope))),
        requires_grad=True)


@pytest.mark.parametrize("b,want", [(1, 2), (2, 5), (3, 9), (4, 14), (5, 20), (6, 27)])
def test_edge_count_formula_two_inputs(b, want):
    assert num_edges(b) == b * (b + 3) // 2 == want
    cell = Cell("cnn", CNN_OPS, 4, b, False, rng())
    assert len(cell.edges) == want


def test_four_node_single_input_cell_instantiates_six_of_each_op():
    # 1 input node + 3 intermediates, fully connected: 1+2+3 = 6 edges
    scope = ["lstm_1", "lstm_2", "lstm_att_1"]
    cell = Cell("seqnn", scope, 8, 3, False, rng(), num_inputs=1)
    assert len(cell.edges) == 6
    stacks = [op for e in cell.edges for op in e.ops
              if isinstance(op, RecurrentStack)]
    assert len(stacks) == 18  # 6 instances of each of the 3 kinds


def test_edge_order_is_to_node_then_from_node():
    cell = Cell("cnn", CNN_OPS, 4, 3, False, rng())
    assert cell.edge_index == [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                               (0, 4), (1, 4), (2, 4), (3, 4)]


def test_reduction_stride_only_on_input_node_edges():
    cell = Cell("cnn", ["skip_connect"], 4, 3, True, rng())
    for (i, j), edge in zip(cell.edge_index, cell.edges):
        op = edge.ops[0]
        assert isinstance(op, SkipConnect)
        assert op.stride == (2 if i < 2 else 1)


def test_normal_cell_forward_concatenates_channels():
    cell = Cell("cnn", CNN_OPS, 8, 4, False, rng())
    x = [Tensor(rng(2).normal(size=(2, 8, 6, 6))) for _ in range(2)]
    out = cell(x, alpha_for(cell))
    assert out.shape == (2, 32, 6, 6)


def test_reduction_cell_halves_spatial_dims():
    cell = Cell("cnn", CNN_OPS, 8, 2, True, rng())
    x = [Tensor(rng(3).normal(size=(2, 8, 12, 12))) for _ in range(2)]
    out = cell(x, alpha_for(cell))
    assert out.shape == (2, 16, 6, 6)


def test_seq_cell_forward_keeps_width_by_averaging():
    scope = augment_scope(["lstm_1", "rnn_1"])
    cell = Cell("seqnn", scope, 8, 3, False, rng())
    x = [Tensor(rng(4).normal(size=(2, 5, 8))) for _ in range(2)]
    out = cell(x, alpha_for(cell))
    assert out.shape == (2, 5, 8)


def test_seq_cells_reject_reduction():
    with pytest.raises(ContractViolation):
        Cell("seqnn", ["rnn_1", "skip_connect", "none"], 8, 2, True, rng())


def test_cell_rejects_unprojected_input():
    cell = Cell("cnn", CNN_OPS, 8, 2, False, rng())
    bad = [Tensor(np.zeros((2, 5, 6, 6))), Tensor(np.zeros((2, 8, 6, 6)))]
    with pytest.raises(ContractViolation):
        cell(bad, alpha_for(cell))


SKIPS = [{"from_node": 0, "to_node": 2, "op": "skip_connect"},
         {"from_node": 1, "to_node": 2, "op": "skip_connect"}]


def test_discrete_cell_rejects_an_alpha_table():
    cell = Cell("cnn", CNN_OPS, 4, 1, False, rng(), retained=SKIPS)
    x = [Tensor(np.ones((1, 4, 4, 4))) for _ in range(2)]
    with pytest.raises(ContractViolation, match="discrete cell no table"):
        cell(x, Tensor(np.zeros((2, len(CNN_OPS)))))


def test_search_cell_needs_an_alpha_table():
    cell = Cell("cnn", CNN_OPS, 4, 1, False, rng())
    x = [Tensor(np.ones((1, 4, 4, 4))) for _ in range(2)]
    with pytest.raises(ContractViolation, match="search cell takes one row"):
        cell(x)


@pytest.mark.parametrize("num_inputs", [1, 3])
def test_discrete_cell_has_two_inputs(num_inputs):
    with pytest.raises(ContractViolation, match="exactly 2 inputs"):
        Cell("cnn", CNN_OPS, 4, 1, False, rng(), num_inputs=num_inputs,
             retained=SKIPS)


def test_augment_scope_appends_skip_and_none_once():
    assert augment_scope(["lstm_1"]) == ["lstm_1", "skip_connect", "none"]
    assert augment_scope(["rnn_1", "none"]) == ["rnn_1", "none", "skip_connect"]
    assert augment_scope(CNN_OPS) == CNN_OPS


def test_one_hot_alpha_recovers_single_op_output():
    cell = Cell("cnn", CNN_OPS, 4, 1, False, rng(5))
    x = [Tensor(rng(6).normal(size=(1, 4, 6, 6))) for _ in range(2)]
    skip_idx = CNN_OPS.index("skip_connect")
    a = np.full((2, len(CNN_OPS)), -60.0)
    a[:, skip_idx] = 60.0     # softmax weight 1 up to float64 rounding
    out = cell(x, Tensor(a))
    want = x[0].data + x[1].data
    np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-12)


def test_mixed_edge_matches_manual_convex_combination():
    cell = Cell("cnn", ["max_pool_3x3", "skip_connect", "none"],
                     4, 1, False, rng(7))
    x0 = rng(8).normal(size=(1, 4, 5, 5))
    xs = [Tensor(x0), Tensor(np.zeros((1, 4, 5, 5)))]
    a = np.array([[0.3, -0.2, 1.1], [0.0, 0.0, 0.0]])
    out = cell(xs, Tensor(a))
    edge = cell.edges[0]
    z = np.exp(a[0] - a[0].max())
    w = z / z.sum()
    manual = sum(wk * op(Tensor(x0)).data for wk, op in zip(w, edge.ops))
    np.testing.assert_allclose(out.data, manual, rtol=1e-12, atol=1e-12)


def test_gradient_reaches_alpha_table():
    scope = augment_scope(["rnn_1"])
    cell = Cell("seqnn", scope, 4, 2, False, rng(9))
    alphas = alpha_for(cell)
    x = [Tensor(rng(10).normal(size=(2, 4, 4))) for _ in range(2)]
    y = cell(x, alphas)
    (y * y).sum().backward()
    assert alphas.grad is not None
    assert np.all(np.isfinite(alphas.grad))
    # every edge row gets signal: softmax couples all candidates
    assert np.all(np.abs(alphas.grad).sum(axis=1) > 0)


def test_weight_sharing_edges_have_private_parameters():
    cell = Cell("cnn", ["sep_conv_3x3"], 8, 2, False, rng(11))
    assert count_params(cell) == len(cell.edges) * 2 * (8 * 9 + 8 * 8)


def test_discretize_excludes_none_even_when_dominant():
    ops = ["max_pool_3x3", "skip_connect", "none"]
    name, strength = discretize_edge(np.array([0.1, 0.2, 9.0]), ops)
    assert name == "skip_connect"
    assert 0.0 < strength < 0.01


def test_discretize_tie_breaks_to_lowest_catalog_index():
    ops = ["max_pool_3x3", "avg_pool_3x3", "none"]
    name, _ = discretize_edge(np.zeros(3), ops)
    assert name == "max_pool_3x3"


def test_discretize_matches_brute_force_on_random_vectors():
    ops = list(CNN_OPS)
    r = rng(12)
    for _ in range(200):
        a = r.normal(size=len(ops))
        got, _ = discretize_edge(a, ops)
        z = np.exp(a - a.max())
        w = z / z.sum()
        w[ops.index("none")] = -np.inf
        assert got == ops[int(np.argmax(w))]


def test_discretize_skip_none_scope_keeps_skip():
    name, _ = discretize_edge(np.array([0.0, 5.0]), ["skip_connect", "none"])
    assert name == "skip_connect"


def test_discretize_none_only_scope_returns_none():
    name, strength = discretize_edge(np.array([1.0]), ["none"])
    assert name == "none" and strength == 0.0
