"""Layers: conv/pool against naive references, BN semantics, linear."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.autograd.grad_check import numerical_gradient
from repro.experiments.configs import EXPERIMENT_SCALES, model_for
from repro.nn import conv as conv_module
from repro.nn import functional as F
from repro.nn.conv import Conv2dFunction, _patch_index, col2im, conv_output_size, im2col
from repro.quant import QConfig, calibrate_model, convert_to_quantized
from repro.training import SGD, QavatTrainer
from repro.variability import VariabilityInjector, VariabilitySpec, WeightProportionalVariance


def naive_conv2d(x, w, b, stride, padding):
    """Direct-loop convolution used as a reference."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (x.shape[2] - kh) // stride + 1
    w_out = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            patch = x[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,ochw->no", patch, w)
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 9, 9))
        conv = nn.Conv2d(3, 4, 3, stride=stride, padding=padding)
        expected = naive_conv2d(x, conv.weight.data, conv.bias.data, stride, padding)
        with no_grad():
            actual = conv(Tensor(x)).data
        assert np.allclose(actual, expected, atol=1e-10)

    def test_no_bias(self, rng):
        conv = nn.Conv2d(2, 3, 3, bias=False)
        assert conv.bias is None
        x = rng.normal(size=(1, 2, 5, 5))
        expected = naive_conv2d(x, conv.weight.data, None, 1, 0)
        with no_grad():
            assert np.allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_gradients(self, rng, monkeypatch):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        conv = nn.Conv2d(2, 3, 3, stride=2, padding=1)

        def f(x):
            return (conv(x) ** 2).mean()

        f(x).backward()
        for target, analytic in [
            (x, x.grad),
            (conv.weight, conv.weight.grad),
            (conv.bias, conv.bias.grad),
        ]:
            assert analytic is not None
        num = numerical_gradient(f, [x], 0)
        assert np.allclose(x.grad, num, atol=1e-5)
        # An input that requires grad still gets exactly the bytes of the
        # strided-add backward.
        got = x.grad
        x.grad = None
        monkeypatch.setattr(Conv2dFunction, "backward", _reference_conv_backward)
        f(x).backward()
        assert got.shape == x.grad.shape and got.tobytes() == x.grad.tobytes()

    def test_weight_gradient_numeric(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        conv = nn.Conv2d(2, 2, 3)

        def f(w):
            conv.weight.data = w.data
            return (conv(x) ** 2).mean()

        w = Tensor(conv.weight.data.copy(), requires_grad=True)
        out = (conv(x) ** 2).mean()
        out.backward()
        analytic = conv.weight.grad
        num = numerical_gradient(f, [w], 0)
        assert np.allclose(analytic, num, atol=1e-5)

    def test_output_shape_helper(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        assert conv.output_shape((32, 32)) == (8, 16, 16)

    def test_flops_positive(self):
        conv = nn.Conv2d(3, 8, 3, padding=1)
        assert conv.flops_per_input((8, 8)) == 2 * 3 * 9 * 8 * 64


class TestIm2col:
    def test_round_trip_counts(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, (2, 2), 2, 0)
        assert cols.shape == (1, 2, 2, 4)
        # Non-overlapping stride: col2im of ones recovers ones.
        back = col2im(np.ones_like(cols), x.shape, (2, 2), 2, 0)
        assert np.allclose(back, 1.0)

    def test_overlap_accumulates(self, rng):
        x_shape = (1, 1, 3, 3)
        cols = np.ones((1, 2, 2, 4))  # kernel 2, stride 1
        back = col2im(cols, x_shape, (2, 2), 1, 0)
        # Center pixel belongs to all four patches.
        assert back[0, 0, 1, 1] == pytest.approx(4.0)
        assert back[0, 0, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 5), (1, 3), (3, 2)])
    def test_col2im_matches_strided_reference_byte_for_byte(self, rng, kernel, stride, padding):
        """Same shape, dtype and bytes as the channel-first strided adds, as
        a fresh C-contiguous array, with -0.0, NaN and ±inf among the patch
        gradients, on every batch, channel count and non-square input of
        the im2col grid whose padded input fits the kernel."""
        for batch in (0, 1, 7):
            for channels in (1, 3):
                for height, width in ((4, 7), (9, 6)):
                    if kernel[0] > height + 2 * padding or kernel[1] > width + 2 * padding:
                        continue
                    x_shape = (batch, channels, height, width)
                    h_out = conv_output_size(height, kernel[0], stride, padding)
                    w_out = conv_output_size(width, kernel[1], stride, padding)
                    cols = _special_values(
                        rng.normal(size=(batch, h_out, w_out, channels * kernel[0] * kernel[1]))
                    )
                    got = col2im(cols, x_shape, kernel, stride, padding)
                    _assert_same_bytes(got, _strided_col2im(cols, x_shape, kernel, stride, padding))
                    assert not np.shares_memory(got, cols)

    def test_col2im_keeps_gradient_dtype(self, rng):
        cols = rng.normal(size=(2, 5, 6, 18)).astype(np.float32)
        _assert_same_bytes(
            col2im(cols, (2, 2, 5, 6), (3, 3), 1, 1),
            _strided_col2im(cols, (2, 2, 5, 6), (3, 3), 1, 1),
        )

    def test_output_size(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16
        assert conv_output_size(28, 5, 1, 0) == 24

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 5), (1, 3), (3, 2)])
    def test_matches_window_reference_byte_for_byte(self, rng, kernel, stride, padding):
        """Same shape, dtype, layout and bytes as the sliding-window lowering,
        including -0.0, NaN and ±inf, on every batch, channel count and
        non-square input of the grid; a kernel that does not fit the padded
        input raises, as it always did."""
        for batch in (0, 1, 7):
            for channels in (1, 3):
                for height, width in ((4, 7), (9, 6)):
                    x = _special_values(rng.normal(size=(batch, channels, height, width)))
                    fits = kernel[0] <= height + 2 * padding and kernel[1] <= width + 2 * padding
                    if not fits:
                        with pytest.raises(ValueError):
                            _window_im2col(x, kernel, stride, padding)
                        with pytest.raises(ValueError):
                            im2col(x, kernel, stride, padding)
                        continue
                    _assert_same_bytes(
                        im2col(x, kernel, stride, padding),
                        _window_im2col(x, kernel, stride, padding),
                    )

    @pytest.mark.parametrize("padding", [0, 2])
    def test_non_contiguous_input_view(self, rng, padding):
        base = _special_values(rng.normal(size=(3, 6, 9, 14)))
        for x in (base[:, ::2, :, 1::2], base.transpose(0, 1, 3, 2), np.asfortranarray(base)):
            assert not x.flags.c_contiguous
            _assert_same_bytes(
                im2col(x, (3, 3), 2, padding), _window_im2col(x, (3, 3), 2, padding)
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    def test_keeps_input_dtype(self, rng, dtype):
        x = (rng.normal(size=(2, 2, 5, 6)) * 4).astype(dtype)
        _assert_same_bytes(im2col(x, (3, 3), 1, 1), _window_im2col(x, (3, 3), 1, 1))

    def test_kernel_larger_than_padded_input_raises(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        with pytest.raises(ValueError):
            im2col(x, (5, 5), 1, 0)
        with pytest.raises(ValueError):
            im2col(x, (3, 7), 1, 1)
        assert im2col(x, (5, 5), 1, 1).shape == (1, 2, 2, 25)

    @pytest.mark.parametrize(
        "kernel, stride, padding", [((0, 3), 1, 0), ((3, 3), 0, 0), ((3, 3), -1, 1), ((3, 3), 1, -1)]
    )
    def test_invalid_geometry_raises(self, rng, kernel, stride, padding):
        # Checked up front: the gather does not bounds-check its index, so a
        # negative padding would otherwise wrap around to wrong elements.
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 2, 6, 6)), kernel, stride, padding)

    @pytest.mark.parametrize("kernel, padding", [((1, 1), 0), ((3, 3), 0), ((3, 3), 1)])
    def test_result_is_writable_and_owns_its_memory(self, rng, kernel, padding):
        # A 1x1 kernel over one channel once came back as a read-only view
        # of the input; every geometry now returns a fresh array.
        x = rng.normal(size=(2, 1, 5, 5))
        cols = im2col(x, kernel, 1, padding)
        index = _patch_index(1, 5, 5, *kernel, 1, padding)
        assert cols.flags.writeable and cols.flags.c_contiguous
        assert not np.shares_memory(cols, x)
        assert not np.shares_memory(cols, index)
        cols[...] = 7.0
        assert not (x == 7.0).any()
        assert not index.flags.writeable

    def test_index_built_once_per_geometry(self, rng):
        _patch_index.cache_clear()
        x = rng.normal(size=(4, 3, 10, 10))
        first = im2col(x, (5, 5), 1, 2)
        for rows in (1, 2, 4):
            im2col(x[:rows], (5, 5), 1, 2)
        assert _patch_index.cache_info().misses == 1
        assert _patch_index.cache_info().hits == 3
        im2col(x, (5, 5), 2, 2)
        assert _patch_index.cache_info().misses == 2
        np.testing.assert_array_equal(im2col(x, (5, 5), 1, 2), first)


def _window_im2col(x, kernel, stride, padding):
    """The sliding-window lowering im2col used before the gather.

    Kept as the reference the gather must reproduce byte for byte.  Only
    the final reshape names the patch width: ``-1`` cannot be inferred for
    an empty batch, where the old body raised.
    """
    kh, kw = kernel
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # (N, C, Ho, Wo, kh, kw) -> (N, Ho, Wo, C, kh, kw)
    windows = windows.transpose(0, 2, 3, 1, 4, 5)
    n, h_out, w_out = windows.shape[:3]
    return np.ascontiguousarray(windows).reshape(n, h_out, w_out, x.shape[1] * kh * kw)


def _strided_col2im(cols, x_shape, kernel, stride, padding):
    """The channel-first strided-add scatter col2im used before the
    channel-last buffer.

    Kept as the reference col2im must reproduce byte for byte.  With
    padding it returns a non-contiguous view of its buffer.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h_pad - kh) // stride + 1
    w_out = (w_pad - kw) // stride + 1
    cols = cols.reshape(n, h_out, w_out, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    out = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[
                :, :, :, :, i, j
            ]
    if padding:
        out = out[:, :, padding : padding + h, padding : padding + w]
    return out


def _reference_conv_backward(self, grad):
    """``Conv2dFunction.backward`` as it was before it skipped unneeded input
    gradients: it always computes ``grad_x``, through :func:`_strided_col2im`."""
    cols, w_mat, x_shape, w_shape = self.saved
    out_channels = w_shape[0]
    grad_nhwc = grad.transpose(0, 2, 3, 1)
    grad_flat = grad_nhwc.reshape(-1, out_channels)
    cols_flat = cols.reshape(-1, cols.shape[-1])
    grad_weight = (grad_flat.T @ cols_flat).reshape(w_shape)
    grad_cols = grad_nhwc @ w_mat
    grad_x = _strided_col2im(grad_cols, x_shape, w_shape[2:], self.stride, self.padding)
    grad_bias = grad_flat.sum(axis=0) if self.has_bias else None
    return grad_x, grad_weight, grad_bias


def _special_values(x):
    """``x`` with -0.0, NaN, +inf and -inf planted where it has room."""
    flat = x.reshape(-1)
    for position, value in zip((0, 3, -1, -4), (-0.0, np.nan, np.inf, -np.inf)):
        if flat.size > abs(position):
            flat[position] = value
    return x


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _tiny_fake_quant_model(model_name, workload, batch=8):
    """``model_name`` at the tiny experiment width, A4W2 fake-quant and
    calibrated on one seeded random batch: ``(model, inputs, targets)``."""
    model = model_for(model_name, workload, EXPERIMENT_SCALES["tiny"])
    side, channels = (28, 1) if workload == "mnist" else (32, 3)
    data = np.random.default_rng(3)
    inputs = data.normal(size=(batch, channels, side, side))
    targets = data.integers(0, 10, size=batch)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, [(inputs, targets)])
    model.train()
    return model, inputs, targets


def _mixed_variation_injector():
    return VariabilityInjector(VariabilitySpec.mixed(0.2, WeightProportionalVariance()), seed=0)


class TestConvInputGradient:
    """The conv backward computes an input gradient only where it is read."""

    def test_qavat_step_scatters_for_the_second_conv_only(self, monkeypatch):
        model, inputs, targets = _tiny_fake_quant_model("lenet5", "mnist", batch=32)
        trainer = QavatTrainer(model, SGD(model.parameters(), lr=0.05), _mixed_variation_injector())
        scattered, returned = [], []
        real_col2im, real_backward = conv_module.col2im, Conv2dFunction.backward

        def counting_col2im(cols, x_shape, *geometry):
            scattered.append(x_shape)
            return real_col2im(cols, x_shape, *geometry)

        def recording_backward(self, grad):
            grads = real_backward(self, grad)
            returned.append((self.saved[2], grads[0]))
            return grads

        monkeypatch.setattr(conv_module, "col2im", counting_col2im)
        monkeypatch.setattr(Conv2dFunction, "backward", recording_backward)
        trainer.train_step(inputs, targets)
        # Backward runs output first: conv2, then conv1 on the data.
        (conv2_shape, conv2_grad), (conv1_shape, conv1_grad) = returned
        assert conv1_shape == inputs.shape and conv1_grad is None
        assert conv2_grad.shape == conv2_shape
        assert scattered == [conv2_shape]

    @pytest.mark.parametrize(
        "model_name, workload", [("lenet5", "mnist"), ("vgg11", "cifar10"), ("resnet18", "cifar10")]
    )
    def test_parameter_gradients_match_reference_backward(
        self, monkeypatch, model_name, workload
    ):
        def step_gradients():
            model, inputs, targets = _tiny_fake_quant_model(model_name, workload)
            _mixed_variation_injector().resample(model)
            F.cross_entropy(model(Tensor(inputs)), targets).backward()
            return {name: p.grad for name, p in model.named_parameters()}

        got = step_gradients()
        monkeypatch.setattr(Conv2dFunction, "backward", _reference_conv_backward)
        want = step_gradients()
        assert list(got) == list(want)
        for name, grad in got.items():
            assert grad.dtype == want[name].dtype and grad.shape == want[name].shape, name
            assert grad.tobytes() == want[name].tobytes(), name


class TestPooling:
    def test_maxpool_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        pool = nn.MaxPool2d(2)
        with no_grad():
            out = pool(Tensor(x)).data
        expected = x.reshape(2, 3, 4, 2, 4, 2).max(axis=(3, 5))
        assert np.allclose(out, expected)

    def test_maxpool_stride_not_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        pool = nn.MaxPool2d(3, stride=2)
        with no_grad():
            out = pool(Tensor(x)).data
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_maxpool_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        pool = nn.MaxPool2d(2)

        def f(x):
            return (pool(x) ** 2).sum()

        f(x).backward()
        num = numerical_gradient(f, [x], 0)
        assert np.allclose(x.grad, num, atol=1e-5)

    def test_avgpool_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        pool = nn.AvgPool2d(2)
        with no_grad():
            out = pool(Tensor(x)).data
        expected = x.reshape(2, 3, 4, 2, 4, 2).mean(axis=(3, 5))
        assert np.allclose(out, expected)

    def test_avgpool_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        pool = nn.AvgPool2d(2)

        def f(x):
            return (pool(x) ** 2).sum()

        f(x).backward()
        num = numerical_gradient(f, [x], 0)
        assert np.allclose(x.grad, num, atol=1e-5)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 5, 4, 4))
        with no_grad():
            out = nn.GlobalAvgPool2d()(Tensor(x)).data
        assert out.shape == (2, 5)
        assert np.allclose(out, x.mean(axis=(2, 3)))


class TestLinear:
    def test_forward(self, rng):
        layer = nn.Linear(4, 3)
        x = rng.normal(size=(5, 4))
        with no_grad():
            out = layer(Tensor(x)).data
        assert np.allclose(out, x @ layer.weight.data.T + layer.bias.data)

    def test_gradient(self, rng):
        layer = nn.Linear(3, 2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f(x):
            return (layer(x) ** 2).mean()

        f(x).backward()
        num = numerical_gradient(f, [x], 0)
        assert np.allclose(x.grad, num, atol=1e-6)
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_flops(self):
        assert nn.Linear(10, 20).flops_per_input() == 400


class TestBatchNorm:
    def test_train_normalizes_batch(self, rng):
        bn = nn.BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = nn.BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=2.0, size=(16, 2, 3, 3))
        bn(Tensor(x))
        assert np.all(bn.running_mean > 0.5)

    def test_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        x = rng.normal(size=(8, 2, 3, 3))
        for _ in range(20):
            bn(Tensor(x))
        bn.eval()
        out_eval = bn(Tensor(x)).data
        # After many identical batches, running stats converge to batch stats.
        assert np.allclose(out_eval.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_eval_is_deterministic_function(self, rng):
        bn = nn.BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(4, 2, 3, 3))))
        bn.eval()
        x = rng.normal(size=(1, 2, 3, 3))
        a = bn(Tensor(x)).data
        b = bn(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(Tensor(np.zeros((3, 2))))

    def test_gradient_flows_to_affine_params(self, rng):
        bn = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        (bn(x) ** 2).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None
        assert x.grad is not None


class TestContainersAndActivations:
    def test_sequential_order(self, rng):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        x = rng.normal(size=(3, 4))
        with no_grad():
            out = model(Tensor(x))
        assert out.shape == (3, 2)
        assert len(model) == 3

    def test_sequential_getitem_iter(self):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert isinstance(model[0], nn.ReLU)
        assert [type(m).__name__ for m in model] == ["ReLU", "Tanh"]

    def test_sequential_append(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.Tanh())
        assert len(model) == 2

    def test_flatten_module(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        with no_grad():
            out = nn.Flatten()(Tensor(x))
        assert out.shape == (2, 48)

    def test_tanh_gradient(self, rng):
        from repro.autograd import gradcheck

        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        assert gradcheck(lambda x: (nn.Tanh()(x) ** 2).sum(), [x])
