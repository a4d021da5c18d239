"""Primitive differentiable operations.

Each class implements a forward pass on raw numpy arrays and the matching
backward pass.  Broadcasting operands are handled by
:func:`repro.autograd.function.unbroadcast`.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function, unbroadcast


class Add(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(grad, b_shape)


class Sub(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(-grad, b_shape)


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        grad_a = unbroadcast(grad / b, a.shape)
        grad_b = unbroadcast(-grad * a / (b * b), b.shape)
        return grad_a, grad_b


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    """Elementwise power with a python-scalar exponent."""

    def forward(self, a, exponent: float):
        self.save_for_backward(a)
        self.exponent = exponent
        return a**exponent

    def backward(self, grad):
        (a,) = self.saved
        return (grad * self.exponent * a ** (self.exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Sqrt(Function):
    def forward(self, a):
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad / (2.0 * out),)


class Abs(Function):
    def forward(self, a):
        self.save_for_backward(np.sign(a))
        return np.abs(a)

    def backward(self, grad):
        (sign,) = self.saved
        return (grad * sign,)


class ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Clip(Function):
    """Clamp to ``[low, high]``; gradient is zero outside the range."""

    def forward(self, a, low: float, high: float):
        mask = (a >= low) & (a <= high)
        self.save_for_backward(mask)
        return np.clip(a, low, high)

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class MatMul(Function):
    """Matrix product supporting batched operands like ``numpy.matmul``."""

    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved
        if a.ndim == 1 and b.ndim == 1:
            return grad * b, grad * a
        if a.ndim == 1:
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.outer(a, grad)
            return grad_a, grad_b
        if b.ndim == 1:
            grad_a = np.expand_dims(grad, -1) * b
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return grad_a, grad_b
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


class Sum(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        grad = _restore_reduced_dims(grad, self.in_shape, self.axis, self.keepdims)
        return (np.broadcast_to(grad, self.in_shape).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        self.count = a.size if axis is None else np.prod(
            [a.shape[ax] for ax in _normalize_axes(axis, a.ndim)]
        )
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        grad = _restore_reduced_dims(grad, self.in_shape, self.axis, self.keepdims)
        return (np.broadcast_to(grad / self.count, self.in_shape).copy(),)


class _MinMaxReduce(Function):
    """Shared machinery for Max/Min: gradient flows to the arg-extreme.

    Ties split the gradient equally among tied entries (matches the
    subgradient convention used by common frameworks closely enough for
    training purposes).
    """

    ufunc = None  # type: ignore[assignment]

    def forward(self, a, axis=None, keepdims: bool = False):
        out = self.ufunc(a, axis=axis, keepdims=keepdims)
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        out_keep = self.ufunc(a, axis=axis, keepdims=True)
        mask = (a == out_keep).astype(a.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        self.save_for_backward(mask)
        return out

    def backward(self, grad):
        (mask,) = self.saved
        grad = _restore_reduced_dims(grad, self.in_shape, self.axis, self.keepdims)
        return (mask * grad,)


class Max(_MinMaxReduce):
    ufunc = staticmethod(np.max)


class Min(_MinMaxReduce):
    ufunc = staticmethod(np.min)


class Reshape(Function):
    def forward(self, a, shape):
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad):
        return (grad.reshape(self.in_shape),)


class Transpose(Function):
    def forward(self, a, axes):
        self.axes = axes
        return np.transpose(a, axes)

    def backward(self, grad):
        inverse = np.argsort(self.axes)
        return (np.transpose(grad, inverse),)


class GetItem(Function):
    def forward(self, a, index):
        self.in_shape = a.shape
        self.index = index
        return a[index]

    def backward(self, grad):
        out = np.zeros(self.in_shape, dtype=grad.dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class LogSoftmax(Function):
    """Numerically stable log-softmax along the last axis."""

    def forward(self, a):
        shifted = a - a.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = shifted - log_z
        self.save_for_backward(np.exp(out))
        return out

    def backward(self, grad):
        (softmax,) = self.saved
        return (grad - softmax * grad.sum(axis=-1, keepdims=True),)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _restore_reduced_dims(grad, in_shape, axis, keepdims: bool):
    """Reshape a reduced gradient so it broadcasts back over ``in_shape``."""
    if keepdims or axis is None and grad.ndim == 0:
        if axis is None and not keepdims:
            return grad.reshape((1,) * len(in_shape))
        return grad
    axes = _normalize_axes(axis, len(in_shape))
    shape = [1 if i in axes else s for i, s in enumerate(in_shape)]
    return grad.reshape(shape)


def log_softmax(tensor):
    """Differentiable, numerically stable log-softmax over the last axis."""
    return LogSoftmax.apply(tensor)
