import numpy as np
import pytest

from loglens.autodiff import (
    ParamSet,
    Tensor,
    attention_params,
    conv2d,
    finite_difference_check,
    lstm_cell,
    lstm_params,
    lstm_step,
    matmul,
    multihead_attention,
    narrow,
    run_lstm,
    sigmoid,
    sinusoidal_encoding,
    tanh,
)
from loglens.exceptions import ConfigurationError, DimensionError
from loglens.rng import Rng


class TestParamSet:
    def test_same_seed_bit_identical(self):
        def build(seed):
            ps = ParamSet(seed)
            ps.uniform("w", (4, 3), fan_in=4)
            lstm_params(ps, "cell", 3, 5)
            return ps

        a, b = build(42), build(42)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seeds_differ(self):
        a = ParamSet(1).uniform("w", (8, 8), fan_in=8)
        b = ParamSet(2).uniform("w", (8, 8), fan_in=8)
        assert not np.array_equal(a.data, b.data)

    def test_uniform_bound(self):
        w = ParamSet(3).uniform("w", (200,), fan_in=16)
        assert np.all(np.abs(w.data) <= 0.25)


class TestLstmCell:
    def zero_params(self, d, u):
        return (Tensor(np.zeros((d, 4 * u))), Tensor(np.zeros((u, 4 * u))),
                Tensor(np.zeros(4 * u)))

    def test_zero_fixed_point(self):
        wx, wh, b = self.zero_params(2, 3)
        h, c = lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                         Tensor(np.zeros((1, 3))), wx, wh, b)
        assert np.all(h.data == 0.0)
        assert np.all(c.data == 0.0)

    def test_zero_params_halve_cell_state(self):
        # all gates sit at sigmoid(0)=0.5, candidate tanh(0)=0
        wx, wh, b = self.zero_params(2, 3)
        c0 = np.array([[0.4, -1.0, 2.0]])
        h, c = lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                         Tensor(c0), wx, wh, b)
        assert np.allclose(c.data, 0.5 * c0)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c0))

    def test_hidden_state_bounded(self):
        rng = Rng(21)
        ps = ParamSet(21)
        lstm_params(ps, "l", 4, 3)
        h, c = lstm_cell(Tensor(rng.uniform(-5, 5, (2, 4))),
                         Tensor(rng.uniform(-5, 5, (2, 3))),
                         Tensor(rng.uniform(-5, 5, (2, 3))),
                         ps["l.wx"], ps["l.wh"], ps["l.b"])
        assert np.all(np.abs(h.data) < 1.0)

    def test_shape_mismatch(self):
        wx, wh, b = self.zero_params(2, 3)
        with pytest.raises(DimensionError):
            lstm_cell(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))),
                      Tensor(np.zeros((1, 3))), wx, wh, b)
        for h, c in (((1, 2), (1, 3)), ((1, 3), (1, 4))):
            with pytest.raises(DimensionError):
                lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros(h)),
                          Tensor(np.zeros(c)), wx, wh, b)

    def test_unrolled_gradient_vs_finite_difference(self):
        rng = Rng(22)
        ps = ParamSet(22)
        lstm_params(ps, "l", 2, 3)
        xs = [Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(4)]

        def loss():
            hs = run_lstm(xs, ps, "l", 3)
            return (hs[-1] * hs[-1]).sum()

        leaves = [ps["l.wx"], ps["l.wh"], ps["l.b"]]
        assert finite_difference_check(loss, leaves) < 1e-3

    def step_leaves(self, seed, batch=3, d=2, u=3):
        rng = Rng(seed)
        shapes = [(batch, d), (batch, u), (batch, u), (d, 4 * u), (u, 4 * u), (4 * u,)]
        return [Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in shapes]

    def test_fused_step_gradient_vs_finite_difference(self):
        x, h, c, wx, wh, b = leaves = self.step_leaves(23)
        wts = Tensor(Rng(24).uniform(-1, 1, (3, 6)))

        def loss():
            # uses both halves of the packed [h | c] output
            return (lstm_step(x, h, c, wx, wh, b) * wts).sum()

        assert finite_difference_check(loss, leaves) < 1e-4

    def test_two_step_run_lstm_gradient(self):
        rng = Rng(25)
        ps = ParamSet(25)
        lstm_params(ps, "l", 2, 3)
        xs = [Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True) for _ in range(2)]
        wts = [Tensor(rng.uniform(-1, 1, (2, 3))) for _ in range(2)]

        def loss():
            hs = run_lstm(xs, ps, "l", 3)
            return (hs[0] * wts[0]).sum() + (hs[1] * wts[1]).sum()

        leaves = [ps["l.wx"], ps["l.wh"], ps["l.b"], *xs]
        assert finite_difference_check(loss, leaves) < 1e-4

    def test_fused_step_bit_identical_to_elementary_ops(self):
        def elementary(x, h, c, wx, wh, b):
            u = wh.shape[0]
            gates = matmul(x, wx) + matmul(h, wh) + b
            i = sigmoid(narrow(gates, -1, 0, u))
            f = sigmoid(narrow(gates, -1, u, u))
            o = sigmoid(narrow(gates, -1, 2 * u, u))
            g = tanh(narrow(gates, -1, 3 * u, u))
            c_next = f * c + i * g
            return o * tanh(c_next), c_next

        results = []
        for cell in (lstm_cell, elementary):
            leaves = self.step_leaves(26, batch=4, d=3, u=5)
            h_weights, c_weights = (Tensor(w) for w in Rng(27).uniform(-1, 1, (2, 4, 5)))
            h, c = cell(*leaves)
            ((h * h_weights).sum() + (c * c_weights).sum()).backward()
            results.append([h.data, c.data] + [leaf.grad for leaf in leaves])
        for fused, reference in zip(*results):
            assert np.array_equal(fused, reference)


class TestMultiheadAttention:
    def params(self, seed, d):
        ps = ParamSet(seed)
        attention_params(ps, "a", d)
        return ps

    def test_single_position_equals_value_projection(self):
        ps = self.params(30, 4)
        x = Tensor(Rng(30).uniform(-1, 1, (1, 4)))
        out = multihead_attention(x, 2, ps["a.wq"], ps["a.wk"], ps["a.wv"], ps["a.wo"])
        expected = (x.data @ ps["a.wv"].data) @ ps["a.wo"].data
        assert np.allclose(out.data, expected)

    def test_weight_rows_sum_to_one(self):
        ps = self.params(31, 8)
        x = Tensor(Rng(31).uniform(-2, 2, (5, 8)))
        _, weights = multihead_attention(x, 4, ps["a.wq"], ps["a.wk"], ps["a.wv"],
                                         ps["a.wo"], return_weights=True)
        assert np.all(np.abs(weights.sum(axis=-1) - 1.0) < 1e-9)

    def test_heads_must_divide_dim(self):
        ps = self.params(32, 4)
        with pytest.raises(ConfigurationError):
            multihead_attention(Tensor(np.zeros((2, 4))), 3,
                                ps["a.wq"], ps["a.wk"], ps["a.wv"], ps["a.wo"])

    def test_gradient_vs_finite_difference(self):
        ps = self.params(33, 4)
        x = Tensor(Rng(33).uniform(-1, 1, (3, 4)), requires_grad=True)

        def loss():
            out = multihead_attention(x, 2, ps["a.wq"], ps["a.wk"],
                                      ps["a.wv"], ps["a.wo"])
            return (out * out).sum()

        leaves = [x, ps["a.wq"], ps["a.wk"], ps["a.wv"], ps["a.wo"]]
        assert finite_difference_check(loss, leaves) < 1e-3


class TestConv2d:
    def test_unit_filter_is_identity(self):
        img = Tensor([[1.0, 2.0], [3.0, 4.0]])
        (out,) = conv2d(img, [Tensor([[1.0]])])
        assert np.array_equal(out.data, img.data)

    def test_all_ones_filter_sums_patch(self):
        img = Tensor([[1.0, 2.0], [3.0, 4.0]])
        (out,) = conv2d(img, [Tensor(np.ones((2, 2)))])
        assert out.data.tolist() == [[10.0]]

    def test_output_shape(self):
        img = Tensor(np.zeros((5, 4)))
        (out,) = conv2d(img, [Tensor(np.zeros((3, 2)))])
        assert out.shape == (3, 3)

    def test_filter_larger_than_image(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((2, 2))), [Tensor(np.zeros((3, 1)))])

    def test_gradient_vs_finite_difference(self):
        rng = Rng(40)
        img = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
        f1 = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        f2 = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

        def loss():
            maps = conv2d(img, [f1, f2])
            return sum((m * m).sum() for m in maps[1:]) + (maps[0] * maps[0]).sum()

        assert finite_difference_check(loss, [img, f1, f2]) < 1e-4


class TestPositionalEncoding:
    def test_shape_and_range(self):
        table = sinusoidal_encoding(12, 8)
        assert table.shape == (12, 8)
        assert np.all(np.abs(table) <= 1.0)

    def test_first_row_alternates_zero_one(self):
        table = sinusoidal_encoding(4, 6)
        assert np.allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
