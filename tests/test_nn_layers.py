import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from loglens.autodiff import (
    ParamSet,
    Tensor,
    attention_params,
    conv2d,
    finite_difference_check,
    lstm_params,
    lstm_sequence,
    matmul,
    multihead_attention,
    narrow,
    run_lstm,
    sigmoid,
    sinusoidal_encoding,
    tanh,
)
from loglens.autodiff.tensor import _sigmoid
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


def lstm_cell(x, h, c, wx, wh, b):
    """One step of the LSTM node: ``h_next`` and ``c_next`` as (batch, units)."""
    batch, units = h.shape
    packed = lstm_sequence(x.reshape(1, *x.shape), h, c, wx, wh, b)
    return (narrow(packed, -1, 0, units).reshape(batch, units),
            narrow(packed, -1, units, units).reshape(batch, units))


def elementary_lstm(x, h, c, wx, wh, b, reverse=False):
    """The LSTM recurrence over the (T, batch, dim) ``x`` as a graph of
    elementary ops, one step at a time, each step reading its ``narrow``
    slice of ``x``: the per-step hidden and cell states in time order."""
    u = wh.shape[0]
    steps, batch, dim = x.shape
    xs = [narrow(x, 0, t, 1).reshape(batch, dim) for t in range(steps)]
    hs, cs = [None] * len(xs), [None] * len(xs)
    for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
        gates = matmul(xs[t], wx) + matmul(h, wh) + b
        i = sigmoid(narrow(gates, -1, 0, u))
        f = sigmoid(narrow(gates, -1, u, u))
        o = sigmoid(narrow(gates, -1, 2 * u, u))
        g = tanh(narrow(gates, -1, 3 * u, u))
        c = f * c + i * g
        h = o * tanh(c)
        hs[t], cs[t] = h, c
    return hs, cs


def where_sigmoid(d):
    """The two-branch logistic function the one-division form replaces."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        for h, c in (((1, 2), (1, 3)), ((1, 3), (1, 4)), ((2, 3), (2, 3))):
            with pytest.raises(DimensionError):
                lstm_sequence(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros(h)),
                              Tensor(np.zeros(c)), wx, wh, b)
        for shape in ((0, 1, 2), (1, 2), (1, 1, 3)):
            with pytest.raises(DimensionError):
                lstm_sequence(Tensor(np.zeros(shape)), Tensor(np.zeros((1, 3))),
                              Tensor(np.zeros((1, 3))), wx, wh, b)

    def test_unrolled_gradient_vs_finite_difference(self):
        rng = Rng(22)
        ps = ParamSet(22)
        lstm_params(ps, "l", 2, 3)
        xs = Tensor(rng.uniform(-1, 1, (4, 1, 2)))

        def loss():
            hs = run_lstm(xs, ps, "l", 3)
            last = narrow(hs, 0, 3, 1)
            return (last * last).sum()

        leaves = [ps["l.wx"], ps["l.wh"], ps["l.b"]]
        assert finite_difference_check(loss, leaves) < 1e-3

    def sequence_leaves(self, seed, steps, batch=3, d=2, u=3, inputs_trainable=True):
        rng = Rng(seed)
        xs = Tensor(rng.uniform(-1, 1, (steps, batch, d)),
                    requires_grad=inputs_trainable)
        shapes = [(batch, u), (batch, u), (d, 4 * u), (u, 4 * u), (4 * u,)]
        return xs, [Tensor(rng.uniform(-1, 1, s), requires_grad=True) for s in shapes]

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_sequence_gradient_vs_finite_difference(self, steps, reverse):
        xs, state_and_weights = self.sequence_leaves(23 + steps, steps)
        u = 3
        h_wts, c_wts = (Tensor(w) for w in Rng(24).uniform(-1, 1, (2, steps, 3, u)))

        def loss():
            packed = lstm_sequence(xs, *state_and_weights, reverse=reverse)
            return ((narrow(packed, -1, 0, u) * h_wts).sum()
                    + (narrow(packed, -1, u, u) * c_wts).sum())

        assert finite_difference_check(loss, [xs] + state_and_weights) < 1e-4

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_stacked_run_lstm_gradient_vs_finite_difference(self, steps):
        rng = Rng(25)
        ps = ParamSet(25)
        lstm_params(ps, "l0", 2, 3)
        lstm_params(ps, "l1", 3, 2)
        xs = Tensor(rng.uniform(-1, 1, (steps, 2, 2)), requires_grad=True)
        wts = Tensor(rng.uniform(-1, 1, (steps, 2, 2)))

        def loss():
            hs = run_lstm(run_lstm(xs, ps, "l0", 3), ps, "l1", 2, reverse=True)
            return (hs * wts).sum()

        leaves = [ps[n] for n in ps.names()] + [xs]
        assert finite_difference_check(loss, leaves) < 1e-4

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("inputs_trainable", [True, False])
    def test_sequence_bit_identical_to_elementary_ops(self, steps, reverse,
                                                      inputs_trainable):
        u = 5
        results = []
        for fused in (True, False):
            xs, state_and_weights = self.sequence_leaves(
                26, steps, batch=4, d=3, u=u, inputs_trainable=inputs_trainable)
            h_wts, c_wts = Rng(27).uniform(-1, 1, (2, steps, 4, u))
            if fused:
                packed = lstm_sequence(xs, *state_and_weights, reverse=reverse)
                hs = narrow(packed, -1, 0, u)
                cs = narrow(packed, -1, u, u)
                loss = (hs * Tensor(h_wts)).sum() + (cs * Tensor(c_wts)).sum()
                values = [packed.data[..., :u], packed.data[..., u:]]
            else:
                hs, cs = elementary_lstm(xs, *state_and_weights, reverse=reverse)
                # loss terms added in the order the steps ran
                ran = reversed(range(steps)) if reverse else range(steps)
                loss = sum((hs[t] * Tensor(h_wts[t])).sum()
                           + (cs[t] * Tensor(c_wts[t])).sum() for t in ran)
                values = [np.stack([h.data for h in hs]), np.stack([c.data for c in cs])]
            loss.backward()
            results.append(values + [leaf.grad for leaf in [xs] + state_and_weights])
        for fused, reference in zip(*results):
            assert (fused is None) == (reference is None)
            if fused is not None:
                assert np.array_equal(fused, reference)

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("inputs_trainable", [True, False])
    def test_run_lstm_bit_identical_to_elementary_ops(self, steps, inputs_trainable):
        results = []
        for fused in (True, False):
            xs, _ = self.sequence_leaves(28, steps, batch=4, d=3,
                                         inputs_trainable=inputs_trainable)
            ps = ParamSet(28)
            lstm_params(ps, "l", 3, 5)
            wts = Rng(29).uniform(-1, 1, (steps, 4, 5))
            if fused:
                hs = run_lstm(xs, ps, "l", 5)
                (hs * Tensor(wts)).sum().backward()
                values = hs.data
            else:
                zeros = Tensor(np.zeros((4, 5)))
                hs, _ = elementary_lstm(xs, zeros, zeros, ps["l.wx"], ps["l.wh"], ps["l.b"])
                sum((h * Tensor(w)).sum() for h, w in zip(hs, wts)).backward()
                values = np.stack([h.data for h in hs])
            results.append([values, xs.grad] + [ps[n].grad for n in ps.names()])
        for fused, reference in zip(*results):
            assert (fused is None) == (reference is None)
            if fused is not None:
                assert np.array_equal(fused, reference)


class TestSigmoid:
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_one_division_form_equals_two_branch_form(self, d):
        assert where_sigmoid(d).tobytes() == _sigmoid(d).tobytes()

    def test_special_values(self):
        d = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0])
        assert _sigmoid(d).tobytes() == where_sigmoid(d).tobytes()
        assert _sigmoid(d)[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        for x in d:
            assert np.asarray(_sigmoid(np.float64(x))).tobytes() == \
                np.asarray(where_sigmoid(np.float64(x))).tobytes()

    def test_in_place(self):
        d = Rng(30).uniform(-30, 30, (4, 6))
        expected = where_sigmoid(d)
        view = d[:, :4]
        assert _sigmoid(view, out=view) is view
        assert np.array_equal(d[:, :4], expected[:, :4])


class TestMultiheadAttention:
    def params(self, seed, d):
        ps = ParamSet(seed)
        attention_params(ps, "a", d)
        return ps

    def test_single_position_equals_value_projection(self):
        ps = self.params(30, 4)
        x = Tensor(Rng(30).uniform(-1, 1, (1, 1, 4)))
        out = multihead_attention(x, 2, ps["a.wq"], ps["a.wk"], ps["a.wv"], ps["a.wo"])
        expected = (x.data @ ps["a.wv"].data) @ ps["a.wo"].data
        assert np.allclose(out.data, expected)

    def test_heads_must_divide_dim(self):
        ps = self.params(32, 4)
        with pytest.raises(ConfigurationError):
            multihead_attention(Tensor(np.zeros((1, 2, 4))), 3,
                                ps["a.wq"], ps["a.wk"], ps["a.wv"], ps["a.wo"])

    def test_gradient_vs_finite_difference(self):
        ps = self.params(33, 4)
        x = Tensor(Rng(33).uniform(-1, 1, (1, 3, 4)), requires_grad=True)

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
