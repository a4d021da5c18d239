"""Gradient correctness of every primitive op (finite differences)."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd.ops import log_softmax
from repro.autograd.function import unbroadcast


def t(shape, rng, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        a, b = t((3, 4), rng), t((4,), rng)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_sub_broadcast(self, rng):
        a, b = t((2, 1, 4), rng), t((3, 1), rng)
        assert gradcheck(lambda a, b: (a - b).mean(), [a, b])

    def test_mul(self, rng):
        a, b = t((3, 4), rng), t((3, 4), rng)
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = t((3, 3), rng)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: (a**3).sum(), [a])

    def test_exp_log_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        assert gradcheck(lambda a: (a.exp() + a.log() + a.sqrt()).sum(), [a])

    def test_abs(self, rng):
        a = Tensor(rng.uniform(0.2, 1.0, size=(4,)) * np.array([1, -1, 1, -1]), requires_grad=True)
        assert gradcheck(lambda a: a.abs().sum(), [a])

    def test_relu(self, rng):
        a = Tensor([-1.0, -0.3, 0.4, 2.0], requires_grad=True)
        assert gradcheck(lambda a: (a.relu() * a).sum(), [a])

    def test_clip_gradient_masked(self):
        a = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 1.0, 0.0])


class TestMatmulGrads:
    def test_2d(self, rng):
        a, b = t((3, 4), rng), t((4, 2), rng)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched(self, rng):
        a, b = t((2, 3, 4), rng), t((2, 4, 5), rng)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched_broadcast_rhs(self, rng):
        a, b = t((2, 3, 4), rng), t((4, 5), rng)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_vector_vector(self, rng):
        a, b = t((4,), rng), t((4,), rng)
        assert gradcheck(lambda a, b: a @ b, [a, b])

    def test_matrix_vector(self, rng):
        a, b = t((3, 4), rng), t((4,), rng)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_vector_matrix(self, rng):
        a, b = t((4,), rng), t((4, 3), rng)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])


class TestReductionGrads:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum(self, rng, axis, keepdims):
        a = t((3, 4), rng)
        assert gradcheck(lambda a: (a.sum(axis=axis, keepdims=keepdims) ** 2).sum(), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 2)])
    def test_mean(self, rng, axis):
        a = t((2, 3, 4), rng)
        assert gradcheck(lambda a: (a.mean(axis=axis) ** 2).sum(), [a])

    def test_max_routes_gradient_to_argmax(self):
        a = Tensor([[1.0, 5.0, 3.0]], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_min_axis(self, rng):
        a = t((4, 5), rng)
        assert gradcheck(lambda a: (a.min(axis=1) ** 2).sum(), [a])

    def test_max_tie_splits_gradient(self):
        a = Tensor([[2.0, 2.0]], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [[0.5, 0.5]])


class TestShapeGrads:
    def test_reshape(self, rng):
        a = t((2, 6), rng)
        assert gradcheck(lambda a: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose(self, rng):
        a = t((2, 3, 4), rng)
        assert gradcheck(lambda a: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_default_transpose_reverses(self, rng):
        a = t((2, 3, 4), rng)
        assert a.transpose().shape == (4, 3, 2)


class TestLogSoftmax:
    def test_rows_normalize(self, rng):
        a = t((4, 7), rng, scale=3.0)
        probs = np.exp(log_softmax(a).data)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_gradient(self, rng):
        a = t((3, 5), rng)
        assert gradcheck(lambda a: (log_softmax(a) ** 2).sum(), [a])

    def test_shift_invariance(self, rng):
        a = t((2, 4), rng)
        shifted = Tensor(a.data + 100.0)
        assert np.allclose(log_softmax(a).data, log_softmax(shifted).data)


class TestUnbroadcast:
    def test_no_op_when_shapes_match(self, rng):
        g = rng.normal(size=(3, 4))
        assert unbroadcast(g, (3, 4)) is g

    def test_sums_leading_axes(self, rng):
        g = rng.normal(size=(5, 3, 4))
        out = unbroadcast(g, (3, 4))
        assert np.allclose(out, g.sum(axis=0))

    def test_sums_size_one_axes(self, rng):
        g = rng.normal(size=(3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        assert np.allclose(out, g.sum(axis=1, keepdims=True))
