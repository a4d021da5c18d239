"""2-D convolution via im2col, as a single fused autograd Function.

The analog-PIM mapping in the paper lowers convolutions to matrix-vector
products over im2col patches; this implementation mirrors that lowering,
which also makes it the natural integration point for crossbar simulation
(:mod:`repro.pim`) and the LTM patch-sum estimation (:mod:`repro.selftuning`).

:func:`im2col` builds every patch matrix in the package: the fake-quant
and circuit layers, their fused fleet stacks, average pooling, the LTM
patch sums and training.  It is a gather: each sample is flattened, and
``np.take`` copies the elements that a precomputed index names into a
preallocated patch matrix.  The index holds the flat source offset of
every patch element, with padded positions pointing at one zero slot
appended to each sample.  It depends only on the geometry (channels,
height, width, kernel, stride, padding), so it is built once per
geometry and cached.  A patch matrix of at least
:data:`repro.nn.rowsplit.FLOOR_BYTES` is gathered in sample ranges, one
``np.take`` per range, on the calling thread and the host's spare cores
(:mod:`repro.nn.rowsplit`); a copy is a copy, so the bytes do not depend
on how the rows were split.

:func:`col2im` is the backward of that gather: it scatter-adds patch
gradients back to the input.  It accumulates into a channel-last
``(N, H_pad, W_pad, C)`` buffer, one strided add per kernel offset
``(i, j)`` in row-major order starting from 0.0, so every add writes
channel-contiguous runs.  Each input pixel still receives its terms in
exactly the order the channel-first strided adds used, so its sum and
every gradient built on it are bit-identical to theirs.

:class:`Conv2dFunction` computes that input gradient only when the input
requires grad.  The first convolution of a model reads data, so its
backward skips the ``grad @ W`` GEMM and the scatter and returns only
the weight and bias gradients.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from repro.autograd import Function, Tensor
from repro.nn import init, rowsplit
from repro.nn.module import Module, Parameter


@lru_cache(maxsize=64)
def _patch_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Read-only flat gather index of one sample's patch matrix.

    Shape ``(H_out, W_out, C*kh*kw)``, elements in ``(c, i, j)`` order
    within a patch.  Entry ``(ho, wo, c, i, j)`` is the offset
    ``c*H*W + (ho*stride + i - padding)*W + (wo*stride + j - padding)`` of
    that element in the flattened ``(C, H, W)`` sample, or ``C*H*W`` (the
    zero slot :func:`im2col` appends) where the position is padding.
    """
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    rows = (np.arange(h_out) * stride)[:, None] + np.arange(kh) - padding  # (H_out, kh)
    cols = (np.arange(w_out) * stride)[:, None] + np.arange(kw) - padding  # (W_out, kw)
    index = (
        (np.arange(c) * (h * w))[None, None, :, None, None]
        + (rows * w)[:, None, None, :, None]
        + cols[None, :, None, None, :]
    )
    if padding:
        inside = ((rows >= 0) & (rows < h))[:, None, None, :, None] & (
            (cols >= 0) & (cols < w)
        )[None, :, None, None, :]
        index = np.where(inside, index, c * h * w)
    index = np.ascontiguousarray(index.reshape(h_out, w_out, c * kh * kw), dtype=np.intp)
    index.flags.writeable = False
    return index


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to patch matrix of shape ``(N, H_out, W_out, C*kh*kw)``.

    Row ``(n, ho, wo)`` is the ``(C, kh, kw)`` window of sample ``n`` at
    output position ``(ho, wo)``, flattened, with zeros where the window
    covers padding.  The result is a new C-contiguous array of ``x``'s
    dtype, gathered through the cached :func:`_patch_index` of this
    geometry by one ``np.take`` per sample range: one range below
    :data:`~repro.nn.rowsplit.FLOOR_BYTES`, up to one per CPU above it
    (the module docstring has the scheme).  Raises ``ValueError`` when the
    kernel does not fit the padded input.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    if min(kh, kw, stride) < 1 or padding < 0:
        raise ValueError(
            f"im2col needs a positive kernel and stride and a non-negative padding, "
            f"got kernel {kernel}, stride {stride}, padding {padding}"
        )
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"im2col kernel {kernel} is larger than the padded input "
            f"{(h + 2 * padding, w + 2 * padding)}"
        )
    index = _patch_index(c, h, w, kh, kw, stride, padding)
    src = x.reshape(n, c * h * w)
    if padding:
        src = np.concatenate((src, np.zeros((n, 1), dtype=x.dtype)), axis=1)
    out = np.empty((n, *index.shape), dtype=x.dtype)
    # The index is in range by construction, so "wrap" never moves an
    # entry; it only skips the per-element bounds check "raise" pays for
    # (and the buffered copy "raise" makes of ``out``).
    rowsplit.run(
        range(n + 1),
        out.nbytes,
        lambda first, stop: [
            partial(src[first:stop].take, index, axis=1, out=out[first:stop], mode="wrap")
        ],
    )
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add patch gradients back to input shape (adjoint of :func:`im2col`).

    ``cols`` has :func:`im2col`'s layout ``(N, H_out, W_out, C*kh*kw)``;
    the result is a new C-contiguous NCHW array of ``x_shape`` and
    ``cols``'s dtype.  The adds run into a channel-last buffer, one per
    kernel offset ``(i, j)`` in row-major order from 0.0, so each writes
    channel-contiguous runs while every pixel sums its terms in the same
    order as channel-first strided adds: the result is bit-identical to
    theirs (the module docstring has the scheme).
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h_pad - kh) // stride + 1
    w_out = (w_pad - kw) // stride + 1
    cols = cols.reshape(n, h_out, w_out, c, kh, kw)
    out = np.zeros((n, h_pad, w_pad, c), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[
                ..., i, j
            ]
    out = out[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


class Conv2dFunction(Function):
    """Fused conv2d: forward + backward w.r.t. input, weight, and bias.

    The backward computes the input gradient (``grad @ W`` and
    :func:`col2im`) only when ``needs_input_grad[0]`` says the input
    requires grad, and returns ``None`` for it otherwise; the weight and
    bias gradients are always computed.
    """

    def forward(self, x, weight, bias, stride: int = 1, padding: int = 0):
        out_channels, in_channels, kh, kw = weight.shape
        cols = im2col(x, (kh, kw), stride, padding)  # (N, Ho, Wo, C*kh*kw)
        w_mat = weight.reshape(out_channels, -1)
        n, h_out, w_out, patch = cols.shape
        # One flat GEMM over all output positions beats a broadcast of
        # (Wo, patch) @ (patch, C_out) micro-GEMMs by a wide margin when
        # C_out is small (the BLAS call overhead dominates tiny matmuls).
        out = (cols.reshape(-1, patch) @ w_mat.T).reshape(n, h_out, w_out, out_channels)
        if bias is not None:
            out = out + bias
        self.save_for_backward(cols, w_mat, x.shape, weight.shape)
        self.stride = stride
        self.padding = padding
        self.has_bias = bias is not None
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad):
        cols, w_mat, x_shape, w_shape = self.saved
        out_channels = w_shape[0]
        # grad: (N, out_channels, Ho, Wo) -> (N, Ho, Wo, out_channels)
        grad_nhwc = grad.transpose(0, 2, 3, 1)
        grad_flat = grad_nhwc.reshape(-1, out_channels)
        cols_flat = cols.reshape(-1, cols.shape[-1])
        grad_weight = (grad_flat.T @ cols_flat).reshape(w_shape)
        grad_x = None
        if self.needs_input_grad[0]:
            grad_cols = grad_nhwc @ w_mat  # (N, Ho, Wo, C*kh*kw)
            grad_x = col2im(grad_cols, x_shape, w_shape[2:], self.stride, self.padding)
        grad_bias = grad_flat.sum(axis=0) if self.has_bias else None
        return grad_x, grad_weight, grad_bias


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0):
    """Functional differentiable 2-D convolution (NCHW)."""
    if bias is None:
        return Conv2dFunction.apply(x, weight, stride=stride, padding=padding, bias=None)
    return Conv2dFunction.apply(x, weight, bias, stride=stride, padding=padding)


class Conv2d(Module):
    """Standard 2-D convolution layer.

    Parameters follow the usual convention: weight ``(C_out, C_in, kh, kw)``,
    optional bias ``(C_out,)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def output_shape(self, input_hw: tuple[int, int]) -> tuple[int, int, int]:
        """(C_out, H_out, W_out) for a given input spatial size."""
        h = conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        w = conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        return self.out_channels, h, w

    def flops_per_input(self, input_hw: tuple[int, int]) -> int:
        """Multiply-accumulate count for one NCHW sample (used by overhead bench)."""
        _, h, w = self.output_shape(input_hw)
        macs_per_position = self.in_channels * self.kernel_size * self.kernel_size
        return 2 * macs_per_position * self.out_channels * h * w

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )
