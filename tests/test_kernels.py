"""NumPy kernels vs naive reference implementations."""

import numpy as np
import pytest

from repro.nn.kernels import (
    avgpool2d,
    batchnorm,
    bias_add,
    concat,
    conv2d,
    dwconv2d,
    flatten,
    global_avgpool,
    lrn,
    matmul,
    maxpool2d,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from tests.helpers import lrn_reference


def naive_conv2d(x, w, stride, padding):
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w_in + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


class TestConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        got = conv2d([x], [w], {"kernel": 3, "stride": stride, "padding": padding})
        want = naive_conv2d(x, w, (stride, stride), (padding, padding))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_asymmetric_kernel(self, rng):
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 1, 5)).astype(np.float32)
        got = conv2d([x], [w], {"kernel": (1, 5), "padding": (0, 2)})
        want = naive_conv2d(x, w, (1, 1), (0, 2))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_1x1_is_channel_mix(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
        got = conv2d([x], [w], {"kernel": 1})
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestDWConv:
    def test_matches_per_channel_conv(self, rng):
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        got = dwconv2d([x], [w], {"kernel": 3, "padding": 1})
        for c in range(4):
            want_c = naive_conv2d(x[:, c:c + 1], w[c:c + 1], (1, 1), (1, 1))
            np.testing.assert_allclose(got[:, c:c + 1], want_c, rtol=1e-4, atol=1e-5)

    def test_multiplier_expands_channels(self, rng):
        # channel_multiplier > 1 is supported; deep checks live in
        # TestDwconvChannelMultiplier below.
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal((8, 1, 3, 3)).astype(np.float32)
        out = dwconv2d([x], [w], {"kernel": 3, "channel_multiplier": 2})
        assert out.shape == (1, 8, 6, 6)


class TestPooling:
    def test_maxpool(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        got = maxpool2d([x], [], {"kernel": 2})
        want = x.reshape(1, 2, 2, 2, 2, 2).max(axis=(3, 5))
        np.testing.assert_allclose(got, want)

    def test_maxpool_with_padding_ignores_pad(self, rng):
        x = rng.standard_normal((1, 1, 2, 2)).astype(np.float32) - 10.0
        got = maxpool2d([x], [], {"kernel": 3, "stride": 1, "padding": 1})
        # -inf padding never wins, so corners equal local maxima of x.
        assert got[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_avgpool_counts_padding(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        got = avgpool2d([x], [], {"kernel": 2, "stride": 1, "padding": 1})
        # Corner windows contain 1 real + 3 padded zeros -> mean 0.25.
        assert got[0, 0, 0, 0] == pytest.approx(0.25)

    def test_global_avgpool(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        got = global_avgpool([x], [], {})
        np.testing.assert_allclose(got[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)
        assert got.shape == (2, 3, 1, 1)


class TestElementwise:
    def test_bias_add_4d(self, rng):
        x = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        b = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        got = bias_add([x], [b], {})
        np.testing.assert_allclose(got[0, 1], x[0, 1] + 2.0)

    def test_bias_add_2d(self, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        b = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(bias_add([x], [b], {}), x + b)

    def test_batchnorm_normalises(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        gamma = np.array([2.0, 1.0], dtype=np.float32)
        beta = np.array([0.5, -0.5], dtype=np.float32)
        mean = x.mean(axis=(0, 2, 3)).astype(np.float32)
        var = x.var(axis=(0, 2, 3)).astype(np.float32)
        got = batchnorm([x], [gamma, beta, mean, var], {"eps": 0.0})
        want = gamma.reshape(1, 2, 1, 1) * (x - mean.reshape(1, 2, 1, 1)) / np.sqrt(
            var.reshape(1, 2, 1, 1)
        ) + beta.reshape(1, 2, 1, 1)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(relu([x], [], {}), [0, 0, 2])

    def test_sigmoid_bounds(self, rng):
        # float32 saturates to exactly 0/1 for large magnitudes.
        x = rng.standard_normal(100).astype(np.float32) * 10
        y = sigmoid([x], [], {})
        assert np.all((y >= 0) & (y <= 1))
        mid = sigmoid([np.zeros(1, dtype=np.float32)], [], {})
        assert mid[0] == pytest.approx(0.5)

    def test_tanh(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        np.testing.assert_allclose(tanh([x], [], {}), np.tanh(x), rtol=1e-5)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32) * 50
        y = softmax([x], [], {})
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_softmax_is_stable_for_large_inputs(self):
        x = np.array([[1000.0, 1000.0]], dtype=np.float32)
        y = softmax([x], [], {})
        np.testing.assert_allclose(y, [[0.5, 0.5]])

    def test_lrn_matches_reference(self, rng):
        x = rng.standard_normal((1, 6, 2, 2)).astype(np.float32)
        attrs = {"size": 5, "alpha": 1e-4, "beta": 0.75, "k": 2.0}
        got = lrn([x], [], attrs)
        # Reference: explicit loop over channel windows.
        want = np.empty_like(x)
        for c in range(6):
            lo, hi = max(0, c - 2), min(6, c + 3)
            denom = 2.0 + (1e-4 / 5) * (x[:, lo:hi] ** 2).sum(axis=1)
            want[:, c] = x[:, c] / denom ** 0.75
        np.testing.assert_allclose(got, want, rtol=1e-5)


class TestStructural:
    def test_matmul(self, rng):
        x = rng.standard_normal((2, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_allclose(matmul([x], [w], {}), x @ w, rtol=1e-5)

    def test_concat(self, rng):
        a = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
        b = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        assert concat([a, b], [], {"axis": 1}).shape == (1, 5, 2, 2)

    def test_flatten(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        assert flatten([x], [], {}).shape == (2, 60)


class TestVectorizedLrn:
    """The cumsum LRN vs the literal per-channel loop it replaced."""

    @pytest.mark.parametrize("size,channels", [(5, 96), (5, 3), (3, 8), (7, 16)])
    def test_matches_loop_reference(self, rng, size, channels):
        x = (rng.standard_normal((2, channels, 5, 5)) * 4).astype(np.float32)
        attrs = {"size": size, "alpha": 1e-4, "beta": 0.75, "k": 2.0}
        got = lrn([x], [], attrs)
        want = lrn_reference([x], [], attrs)
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_default_attrs(self, rng):
        x = rng.standard_normal((1, 32, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(lrn([x], [], {}), lrn_reference([x], [], {}),
                                   rtol=1e-6, atol=1e-7)


def naive_dwconv_mult(x, w, mult, stride, padding):
    """Loop reference for depthwise conv with a channel multiplier."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c * mult, ho, wo), dtype=x.dtype)
    for ci in range(c):
        for m in range(mult):
            filt = w[ci * mult + m, 0]
            for i in range(ho):
                for j in range(wo):
                    patch = xp[:, ci, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[:, ci * mult + m, i, j] = (patch * filt).sum(axis=(-2, -1))
    return out


class TestDwconvChannelMultiplier:
    def test_output_shape(self, rng):
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal((8, 1, 3, 3)).astype(np.float32)
        out = dwconv2d([x], [w], {"kernel": 3, "padding": 1, "channel_multiplier": 2})
        assert out.shape == (1, 8, 8, 8)

    @pytest.mark.parametrize("mult,stride,padding", [(2, 1, 1), (3, 2, 1), (2, 1, 0)])
    def test_matches_loop_reference(self, rng, mult, stride, padding):
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((3 * mult, 1, 3, 3)).astype(np.float32)
        attrs = {"kernel": 3, "stride": stride, "padding": padding,
                 "channel_multiplier": mult}
        got = dwconv2d([x], [w], attrs)
        want = naive_dwconv_mult(x, w, mult, (stride, stride), (padding, padding))
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_mult_one_unchanged(self, rng):
        x = rng.standard_normal((1, 5, 7, 7)).astype(np.float32)
        w = rng.standard_normal((5, 1, 3, 3)).astype(np.float32)
        a = dwconv2d([x], [w], {"kernel": 3, "padding": 1})
        b = dwconv2d([x], [w], {"kernel": 3, "padding": 1, "channel_multiplier": 1})
        np.testing.assert_array_equal(a, b)
