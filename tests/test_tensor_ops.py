import math
import threading
from functools import partial
from unittest import mock

import numpy as np
import pytest

from loglens.autodiff import (
    ParamSet,
    Tensor,
    add,
    concat,
    cross_entropy,
    embedding_lookup,
    finite_difference_check,
    lstm_params,
    lstm_sequence,
    matmul,
    max_along,
    mse,
    mul,
    mul_sum,
    narrow,
    no_grad,
    relu,
    run_lstm,
    sigmoid,
    softmax,
    tanh,
    unfold_windows,
)
from loglens.autodiff import tensor as tensor_module
from loglens.exceptions import DimensionError
from loglens.rng import Rng

TOL = 1e-4


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_difference(self):
        rng = Rng(11)
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4, 2))
        err = finite_difference_check(lambda: matmul(a, b).sum(), [a, b])
        assert err < TOL

    def test_batched_input_weight_gradient(self):
        rng = Rng(14)
        a = rand_tensor(rng, (3, 4, 5))
        w = rand_tensor(rng, (5, 2))
        g = rng.uniform(-1.0, 1.0, (3, 4, 2))
        (matmul(a, w) * Tensor(g)).sum().backward()
        per_matrix = np.matmul(a.data.swapaxes(-1, -2), g).sum(axis=0)
        assert np.allclose(w.grad, per_matrix, rtol=1e-12, atol=0.0)
        err = finite_difference_check(lambda: (matmul(a, w) * Tensor(g)).sum(), [a, w])
        assert err < TOL


class TestElementwise:
    def test_tanh_sigmoid_at_zero(self):
        assert tanh(Tensor(0.0)).item() == 0.0
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_codomains(self):
        rng = Rng(5)
        x = rand_tensor(rng, (50,), requires_grad=False)
        assert np.all(np.abs(tanh(x).data) < 1.0)
        s = sigmoid(x).data
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.all(relu(x).data >= 0.0)

    def test_tanh_gradient(self):
        x = Tensor(np.array([0.3]), requires_grad=True)
        err = finite_difference_check(lambda: tanh(x).sum(), [x])
        assert err < TOL

    def test_add_mul_gradients(self):
        rng = Rng(6)
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (2, 3))
        err = finite_difference_check(lambda: ((a + b) * a).sum(), [a, b])
        assert err < TOL

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))

    @pytest.mark.parametrize("name, op", [
        ("add", add), ("mul", mul), ("mul_sum", partial(mul_sum, axis=1))])
    def test_shape_mismatch_names_both_shapes(self, name, op):
        with pytest.raises(DimensionError, match=rf"^{name}: shapes "
                           r"\(2, 3\) and \(2, 4\) are incompatible$"):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_scalar_operand_allowed(self):
        out = Tensor(np.ones((2, 2))) + 1.5
        assert np.all(out.data == 2.5)


class TestMulSum:
    # the BiLSTM readout: hidden states (B, T, 2u), a transposed view of the
    # (T, B, 2u) LSTM output, against per-step weights and per-row scalars
    @pytest.mark.parametrize("other_shape, axis", [((5, 6), 2), ((4, 5, 1), 1)])
    def test_bits_match_mul_then_sum(self, other_shape, axis):
        rng = Rng(61)
        both = rand_tensor(rng, (5, 4, 6))
        other = rand_tensor(rng, other_shape)
        scale = Tensor(rng.uniform(-1.0, 1.0, (4, 6 if axis == 1 else 5)))
        results = []
        for fused in (True, False):
            hidden = both.transpose((1, 0, 2))
            out = (mul_sum(hidden, other, axis=axis) if fused
                   else (hidden * other).sum(axis=axis))
            (tanh(out) * scale).sum().backward()
            results.append((out.data, both.grad, other.grad))
            both.grad = other.grad = None
        for fused, reference in zip(*results):
            assert fused.tobytes() == reference.tobytes()

    def test_gradient_vs_finite_difference(self):
        rng = Rng(62)
        a = rand_tensor(rng, (3, 4, 5))
        b = rand_tensor(rng, (4, 5))
        c = rand_tensor(rng, (3, 4, 1))
        err = finite_difference_check(
            lambda: (mul_sum(a, b, axis=2) * mul_sum(a, c, axis=1).sum()).sum(),
            [a, b, c])
        assert err < TOL


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_logit_no_overflow(self):
        out = softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = Rng(7)
        for _ in range(100):
            x = Tensor(rng.uniform(-10.0, 10.0, (5,)))
            assert abs(softmax(x).data.sum() - 1.0) < 1e-9

    def test_gradient(self):
        rng = Rng(8)
        x = rand_tensor(rng, (3, 4))
        w = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))
        err = finite_difference_check(lambda: (softmax(x, axis=-1) * w).sum(), [x])
        assert err < TOL


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy(logits, [0, 1, 3])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_logits_near_zero_loss(self):
        logits = np.full((1, 5), -20.0)
        logits[0, 2] = 20.0
        assert cross_entropy(Tensor(logits), [2]).item() < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient(self):
        rng = Rng(9)
        logits = rand_tensor(rng, (2, 5))
        targets = [1, 4]
        err = finite_difference_check(lambda: cross_entropy(logits, targets), [logits])
        assert err < TOL


class TestMse:
    def test_identity_is_zero(self):
        v = Tensor([1.0, -2.0, 3.0])
        assert mse(v, v).item() == 0.0

    def test_unit_distance(self):
        assert mse(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).item() == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gradient_flows_to_both_operands(self):
        rng = Rng(10)
        x = rand_tensor(rng, (4,))
        y = rand_tensor(rng, (4,))
        err = finite_difference_check(lambda: mse(x, y), [x, y])
        assert err < TOL


class TestConstantOperandGradients:
    """Backward computes no gradient for an operand that does not require
    one, and the trainable leaves' gradients do not depend on whether it
    does."""

    def run(self, build, constant_trainable):
        """Build ``build(trainable, constant)``'s loss, then backpropagate it
        while counting ``np.matmul`` calls and recording every tensor a
        gradient is accumulated into."""
        rng = Rng(50)
        trainable = [rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,))]
        constant = rand_tensor(rng, (3, 4), requires_grad=constant_trainable)
        loss = build(trainable, constant)
        targets = []

        def accumulate(t, g, inner=tensor_module._accumulate):
            targets.append(t)
            inner(t, g)

        with mock.patch.object(np, "matmul", wraps=np.matmul) as matmuls, \
                mock.patch.object(tensor_module, "_accumulate", accumulate):
            loss.backward()
        touched = any(t is constant for t in targets)
        return [t.grad for t in trainable], matmuls.call_count, touched

    @pytest.mark.parametrize("build, matmuls_saved", [
        (lambda tr, c: matmul(tr[0] * tr[1], c.transpose((1, 0))).sum(), 1),
        (lambda tr, c: matmul(c.transpose((1, 0)), tr[0] * tr[1]).sum(), 1),
        (lambda tr, c: (tr[0] * c * tr[1]).sum(), 0),
        (lambda tr, c: mse(tr[0] * tr[1], c), 0),
        (lambda tr, c: (mse(c, tr[0]) - c.sum()) * tr[1].sum(), 0),
    ], ids=["matmul-right", "matmul-left", "mul", "mse-right", "mse-left"])
    def test_constant_operand_gets_no_gradient(self, build, matmuls_saved):
        grads, matmuls, touched = self.run(build, constant_trainable=False)
        reference, reference_matmuls, reference_touched = self.run(
            build, constant_trainable=True)
        assert not touched and reference_touched
        assert matmuls == reference_matmuls - matmuls_saved
        for g, r in zip(grads, reference):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_lstm_constant_inputs_get_no_gradient(self, steps):
        def run(inputs_trainable):
            rng = Rng(51)
            ps = ParamSet(51)
            lstm_params(ps, "l", 4, 2)
            xs = rand_tensor(rng, (steps, 3, 4), requires_grad=inputs_trainable)
            weights = Tensor(rng.uniform(-1, 1, (steps, 3, 2)))
            loss = (run_lstm(xs, ps, "l", 2) * weights).sum()
            with mock.patch.object(np, "matmul", wraps=np.matmul) as matmuls:
                loss.backward()
            return [ps[n].grad for n in ps.names()], matmuls.call_count, xs

        grads, matmuls, xs = run(False)
        reference, reference_matmuls, _ = run(True)
        assert xs.grad is None
        assert matmuls == reference_matmuls - steps  # no x_t gradient GEMM
        for g, r in zip(grads, reference):
            assert np.array_equal(g, r)


class TestEmbedding:
    def test_row_gather(self):
        table = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = embedding_lookup(table, [1, 0, 1])
        assert out.data.tolist() == [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]

    def test_repeated_id_gradient_accumulates(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        embedding_lookup(table, [1, 1]).sum().backward()
        assert np.array_equal(table.grad[1], [2.0, 2.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            embedding_lookup(Tensor(np.zeros((2, 3))), [0, 2])

    def test_gradient(self):
        rng = Rng(12)
        table = rand_tensor(rng, (6, 3))
        ids = np.array([0, 5, 2, 2])
        w = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
        err = finite_difference_check(
            lambda: (embedding_lookup(table, ids) * w).sum(), [table]
        )
        assert err < TOL


class TestReductions:
    def test_max_along_forward_and_gradient(self):
        x = Tensor([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]], requires_grad=True)
        out = max_along(x, axis=1)
        assert out.data.tolist() == [5.0, 7.0]
        out.sum().backward()
        assert x.grad.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]

    def test_mean_gradient(self):
        rng = Rng(13)
        x = rand_tensor(rng, (3, 5))
        err = finite_difference_check(lambda: (x * x).mean(), [x])
        assert err < TOL

    def test_narrow_gradients_accumulate(self):
        x = Tensor(np.zeros((2, 4)), requires_grad=True)
        (narrow(x, 1, 0, 3).sum() + narrow(x, 1, 1, 3).sum() * 2.0).backward()
        assert x.grad.tolist() == [[1.0, 3.0, 3.0, 2.0]] * 2

    def test_shared_gradient_not_aliased(self):
        # add hands one gradient array to both operands; a later write to
        # one operand's gradient must not show up in the other's
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ((a + b).sum() + (a * 2.0).sum()).backward()
        assert a.grad.tolist() == [3.0] * 3
        assert b.grad.tolist() == [1.0] * 3

    def test_backward_frees_interior_gradients(self):
        rng = Rng(63)
        x, w = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
        v = rand_tensor(rng, (2,))
        product = matmul(x, w)
        h = tanh(product)
        y = mul_sum(h, v, axis=1)
        square = y * y
        square.sum().backward()
        for leaf in (x, w, v):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        for node in (product, h, y, square):
            assert node.grad is None
            assert node._parents == () and node._backward is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (x + x).backward()


# every op that returns a Tensor: the shapes of its Tensor operands and how to
# apply it to them. ``TestNoGrad`` takes the names from ``tensor.__all__``, so
# an op added there without a case here fails
OP_CASES = {
    "add": ([(2, 3), (3,)], add),
    "mul": ([(2, 3), (2, 3)], mul),
    "mul_sum": ([(2, 3), (3,)], partial(mul_sum, axis=1)),
    "matmul": ([(2, 3), (3, 4)], matmul),
    "tanh": ([(2, 3)], tanh),
    "sigmoid": ([(2, 3)], sigmoid),
    "lstm_sequence": ([(3, 2, 4), (2, 5), (2, 5), (4, 20), (5, 20), (20,)],
                      lstm_sequence),
    "relu": ([(2, 3)], relu),
    "softmax": ([(2, 3)], softmax),
    "cross_entropy": ([(2, 3)], lambda x: cross_entropy(x, [0, 2])),
    "mse": ([(2, 3), (2, 3)], mse),
    "embedding_lookup": ([(4, 3)], lambda t: embedding_lookup(t, [[0, 3], [1, 1]])),
    "concat": ([(2, 3), (1, 3)], lambda a, b: concat([a, b])),
    "narrow": ([(2, 5)], lambda x: narrow(x, 1, 1, 3)),
    "unfold_windows": ([(2, 5, 3)], lambda x: unfold_windows(x, 2)),
    "max_along": ([(2, 3)], lambda x: max_along(x, 1)),
    "reshape": ([(2, 3)], lambda x: x.reshape(3, 2)),
    "transpose": ([(2, 3)], lambda x: x.transpose((1, 0))),
    "sum": ([(2, 3)], lambda x: x.sum(axis=0)),
}
NOT_OPS = {"Tensor", "as_tensor", "PrefixTree", "lstm_tree", "no_grad", "grad_enabled"}
OPS = sorted(set(tensor_module.__all__) - NOT_OPS | {"reshape", "transpose", "sum"})


class TestNoGrad:
    @pytest.mark.parametrize("case", ["no_grad", "constants", "one_trainable"])
    @pytest.mark.parametrize("op", OPS)
    def test_records_no_graph(self, op, case):
        """``_make`` is the only recorder: an op's result keeps a backward
        only when the graph is on and an operand requires a gradient, and
        then only that operand as its parent."""
        shapes, apply = OP_CASES[op]
        rng = Rng(71)
        values = [rng.uniform(-1.0, 1.0, shape) for shape in shapes]

        def run(trainable):
            operands = [Tensor(v, requires_grad=i in trainable)
                        for i, v in enumerate(values)]
            return operands, apply(*operands)

        if case == "one_trainable":
            for i in range(len(values)):
                operands, y = run({i})
                assert y.requires_grad
                assert len(y._parents) == 1 and y._parents[0] is operands[i]
                y._backward(np.ones_like(y.data))
                assert [t.grad is not None for t in operands] == [
                    t is operands[i] for t in operands]
                assert operands[i].grad.shape == operands[i].shape
            return
        everything = range(len(values))
        if case == "no_grad":
            with no_grad():
                _, y = run(everything)
        else:
            _, y = run(())
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert np.array_equal(y.data, run(everything)[1].data)

    def test_restored_after_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError
        assert (x * x).requires_grad

    def test_other_threads_keep_their_graph(self):
        entered, release = threading.Event(), threading.Event()

        def score():
            with no_grad():
                entered.set()
                release.wait(5.0)

        worker = threading.Thread(target=score)
        worker.start()
        try:
            assert entered.wait(5.0)
            x = Tensor(np.ones(2), requires_grad=True)
            assert (x * x).requires_grad
        finally:
            release.set()
            worker.join()
