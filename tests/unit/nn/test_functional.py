"""Unit tests for the low-level conv/pool kernels against naive references."""

import numpy as np
import pytest

from repro.nn import functional as F

rng = np.random.default_rng(1234)


def naive_conv3d(x, w, b=None, stride=1, pad=0):
    """Loop reference implementation of channels-first 3D convolution."""
    s = (stride,) * 3 if isinstance(stride, int) else stride
    p = (pad,) * 3 if isinstance(pad, int) else pad
    xp = np.pad(x, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1]), (p[2], p[2])))
    n, ci, D, H, W = xp.shape
    co, _, kd, kh, kw = w.shape
    Do = (D - kd) // s[0] + 1
    Ho = (H - kh) // s[1] + 1
    Wo = (W - kw) // s[2] + 1
    y = np.zeros((n, co, Do, Ho, Wo))
    for nn_ in range(n):
        for o in range(co):
            for d in range(Do):
                for h in range(Ho):
                    for ww in range(Wo):
                        patch = xp[
                            nn_,
                            :,
                            d * s[0] : d * s[0] + kd,
                            h * s[1] : h * s[1] + kh,
                            ww * s[2] : ww * s[2] + kw,
                        ]
                        y[nn_, o, d, h, ww] = (patch * w[o]).sum()
            if b is not None:
                y[nn_, o] += b[o]
    return y


class TestConv3DForward:
    def test_matches_naive_same_padding(self):
        x = rng.normal(size=(2, 3, 5, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3, 3))
        b = rng.normal(size=4)
        got = F.conv3d_forward(x, w, b, stride=1, pad=1)
        want = naive_conv3d(x, w, b, stride=1, pad=1)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_naive_valid(self):
        x = rng.normal(size=(1, 2, 6, 5, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        got = F.conv3d_forward(x, w, None, stride=1, pad=0)
        want = naive_conv3d(x, w, None, stride=1, pad=0)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_naive_strided(self):
        x = rng.normal(size=(2, 2, 7, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        got = F.conv3d_forward(x, w, None, stride=2, pad=1)
        want = naive_conv3d(x, w, None, stride=2, pad=1)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_1x1x1_kernel_is_channel_mix(self):
        x = rng.normal(size=(2, 3, 4, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1, 1))
        got = F.conv3d_forward(x, w)
        want = np.einsum("ncdhw,oc->nodhw", x, w[:, :, 0, 0, 0])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_channel_mismatch_raises(self):
        x = rng.normal(size=(1, 3, 4, 4, 4))
        w = rng.normal(size=(2, 4, 3, 3, 3))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv3d_forward(x, w)

    def test_anisotropic_kernel(self):
        x = rng.normal(size=(1, 2, 6, 6, 6))
        w = rng.normal(size=(2, 2, 1, 3, 3))
        got = F.conv3d_forward(x, w, pad=(0, 1, 1))
        want = naive_conv3d(x, w, pad=(0, 1, 1))
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestConv3DBackward:
    def test_bias_gradient_is_output_sum(self):
        x = rng.normal(size=(2, 2, 4, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        dy = rng.normal(size=(2, 3, 4, 4, 4))
        _, _, db = F.conv3d_backward(dy, x, w, stride=1, pad=1)
        np.testing.assert_allclose(db, dy.sum(axis=(0, 2, 3, 4)))

    def test_no_bias_returns_none(self):
        x = rng.normal(size=(1, 1, 4, 4, 4))
        w = rng.normal(size=(1, 1, 3, 3, 3))
        dy = rng.normal(size=(1, 1, 4, 4, 4))
        _, _, db = F.conv3d_backward(dy, x, w, pad=1, with_bias=False)
        assert db is None

    def test_dx_shape_matches_input(self):
        x = rng.normal(size=(2, 3, 6, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3, 3))
        y = F.conv3d_forward(x, w, pad=1)
        dx, dw, _ = F.conv3d_backward(np.ones_like(y), x, w, pad=1)
        assert dx.shape == x.shape
        assert dw.shape == w.shape


class TestConvTranspose3D:
    def test_doubles_spatial_dims(self):
        x = rng.normal(size=(1, 3, 4, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2, 2))
        y = F.conv_transpose3d_forward(x, w, stride=2)
        assert y.shape == (1, 2, 8, 8, 8)

    def test_adjoint_of_conv(self):
        """<conv(x), y> == <x, convT(y)> with flipped weight roles."""
        x = rng.normal(size=(1, 2, 4, 4, 4))
        wt = rng.normal(size=(2, 3, 2, 2, 2))  # (C_in, C_out, k)
        y = F.conv_transpose3d_forward(x, wt, stride=2)
        z = rng.normal(size=y.shape)
        # conv with weight (C_in=3 -> C_out=2) built by transposing wt
        wc = wt.transpose(0, 1, 2, 3, 4)  # (2,3,2,2,2) as (O=2, C=3)? see below
        # conv3d expects (C_out, C_in, k): here the adjoint conv maps z (3ch)
        # back to x-space (2ch) with weight (2, 3, k) = wt itself.
        back = F.conv3d_forward(z, wt, stride=2, pad=0)
        lhs = float((y * z).sum())
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))
        _ = wc

    def test_stride1_overlapping_accumulates(self):
        x = np.ones((1, 1, 2, 2, 2))
        w = np.ones((1, 1, 2, 2, 2))
        y = F.conv_transpose3d_forward(x, w, stride=1)
        # Centre voxel of the 3x3x3 output receives all 8 contributions.
        assert y.shape == (1, 1, 3, 3, 3)
        assert y[0, 0, 1, 1, 1] == pytest.approx(8.0)
        assert y[0, 0, 0, 0, 0] == pytest.approx(1.0)

    def test_channel_mismatch_raises(self):
        x = rng.normal(size=(1, 3, 4, 4, 4))
        w = rng.normal(size=(2, 4, 2, 2, 2))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv_transpose3d_forward(x, w)


class TestPooling:
    def test_maxpool_picks_window_max(self):
        x = rng.normal(size=(2, 3, 4, 4, 4))
        y, _ = F.maxpool3d_forward(x, 2)
        assert y.shape == (2, 3, 2, 2, 2)
        # brute-force check
        for n in range(2):
            for c in range(3):
                for d in range(2):
                    for h in range(2):
                        for w in range(2):
                            win = x[n, c, 2*d:2*d+2, 2*h:2*h+2, 2*w:2*w+2]
                            assert y[n, c, d, h, w] == win.max()

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.zeros((1, 1, 2, 2, 2))
        x[0, 0, 1, 0, 1] = 5.0
        y, arg = F.maxpool3d_forward(x, 2)
        dy = np.full(y.shape, 3.0)
        dx = F.maxpool3d_backward(dy, arg, x.shape, 2)
        assert dx[0, 0, 1, 0, 1] == 3.0
        assert dx.sum() == 3.0

    def test_indivisible_dims_raise(self):
        x = rng.normal(size=(1, 1, 5, 4, 4))
        with pytest.raises(ValueError, match="divisible"):
            F.maxpool3d_forward(x, 2)


class TestShapeHelpers:
    def test_conv_output_shape_same(self):
        assert F.conv3d_output_shape((240, 240, 152), 3, 1, 1) == (240, 240, 152)

    def test_conv_output_shape_strided(self):
        assert F.conv3d_output_shape((8, 8, 8), 2, 2, 0) == (4, 4, 4)

    def test_conv_output_shape_negative_raises(self):
        with pytest.raises(ValueError, match="output dim"):
            F.conv3d_output_shape((2, 2, 2), 5, 1, 0)

    def test_transpose_output_shape(self):
        assert F.conv_transpose3d_output_shape((4, 4, 4), 2, 2) == (8, 8, 8)
        assert F.conv_transpose3d_output_shape((3, 3, 3), 3, 1) == (5, 5, 5)

    def test_pad_volume_roundtrip_shape(self):
        x = rng.normal(size=(1, 1, 3, 3, 3))
        assert F.pad_volume(x, (1, 2, 0)).shape == (1, 1, 5, 7, 3)
        assert F.pad_volume(x, (0, 0, 0)) is x
