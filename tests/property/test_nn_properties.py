"""Property-based tests (hypothesis) on the neural-network substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import QuadraticSoftDiceLoss, SoftDiceLoss, dice_coefficient
from repro.nn.functional import (
    conv3d_forward,
    conv3d_output_shape,
    maxpool3d_backward,
    maxpool3d_forward,
)

SMALL = {"max_examples": 40, "deadline": None}


def masks(shape=(3, 3, 3)):
    return arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0]))


def probs(shape=(2, 1, 2, 2, 2)):
    return arrays(
        np.float64, shape,
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )


class TestDiceProperties:
    @settings(**SMALL)
    @given(a=masks(), b=masks())
    def test_dice_in_unit_interval_and_symmetric(self, a, b):
        d = dice_coefficient(a, b)
        assert 0.0 <= d <= 1.0
        assert d == dice_coefficient(b, a)

    @settings(**SMALL)
    @given(a=masks())
    def test_self_dice_is_one(self, a):
        assert dice_coefficient(a, a) == 1.0


class TestLossProperties:
    @settings(**SMALL)
    @given(p=probs(), t=masks((2, 1, 2, 2, 2)))
    def test_dice_loss_in_unit_interval(self, p, t):
        loss, grad = SoftDiceLoss().forward(p, t)
        assert 0.0 <= loss <= 1.0
        assert grad.shape == p.shape
        assert np.isfinite(grad).all()

    @settings(**SMALL)
    @given(p=probs(), t=masks((2, 1, 2, 2, 2)))
    def test_quadratic_dice_loss_finite(self, p, t):
        loss, grad = QuadraticSoftDiceLoss().forward(p, t)
        assert 0.0 <= loss <= 1.0 + 1e-12
        assert np.isfinite(grad).all()

    @settings(**SMALL)
    @given(t=masks((2, 1, 2, 2, 2)))
    def test_perfect_prediction_zero_loss(self, t):
        loss, _ = SoftDiceLoss().forward(t.copy(), t)
        assert loss < 1e-9


class TestConvProperties:
    @settings(**SMALL)
    @given(
        d=st.integers(3, 8), h=st.integers(3, 8), w=st.integers(3, 8),
        pad=st.integers(0, 2), stride=st.integers(1, 2),
    )
    def test_output_shape_formula_matches_kernel(self, d, h, w, pad, stride):
        x = np.zeros((1, 1, d, h, w))
        wgt = np.zeros((1, 1, 3, 3, 3))
        expect = None
        try:
            expect = conv3d_output_shape((d, h, w), 3, stride, pad)
        except ValueError:
            return  # illegal geometry is rejected consistently
        y = conv3d_forward(x, wgt, stride=stride, pad=pad)
        assert y.shape[2:] == expect

    @settings(**SMALL)
    @given(x=arrays(np.float64, (1, 2, 4, 4, 4),
                    elements=st.floats(-5, 5, allow_nan=False)))
    def test_conv_linearity(self, x):
        """conv(a x) == a conv(x) -- convolution is linear."""
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 2, 3, 3, 3))
        y1 = conv3d_forward(2.5 * x, w, pad=1)
        y2 = 2.5 * conv3d_forward(x, w, pad=1)
        np.testing.assert_allclose(y1, y2, atol=1e-9)


class TestPoolProperties:
    @settings(**SMALL)
    @given(x=arrays(np.float64, (1, 1, 4, 4, 4),
                    elements=st.floats(-10, 10, allow_nan=False)))
    def test_max_pool_dominates_input_mean(self, x):
        y, _ = maxpool3d_forward(x, 2)
        assert y.max() == x.max()
        assert y.min() >= x.min()

    @settings(**SMALL)
    @given(x=arrays(np.float64, (1, 1, 4, 4, 4),
                    elements=st.floats(-10, 10, allow_nan=False)),
           dy=arrays(np.float64, (1, 1, 2, 2, 2),
                     elements=st.floats(-3, 3, allow_nan=False)))
    def test_max_pool_backward_preserves_mass(self, x, dy):
        """Gradient scatter conserves the total gradient."""
        _, arg = maxpool3d_forward(x, 2)
        dx = maxpool3d_backward(dy, arg, x.shape, 2)
        assert abs(dx.sum() - dy.sum()) < 1e-9


class TestWorkspaceProperties:
    """The GEMM backend's scratch arena must never alias live results."""

    @settings(**SMALL)
    @given(
        shape=st.tuples(st.integers(3, 6), st.integers(3, 6),
                        st.integers(3, 6)),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        repeats=st.integers(1, 3),
    )
    def test_reused_scratch_never_aliases_outputs(self, shape, kernel,
                                                  stride, pad, repeats):
        from repro.nn import use_backend, workspace
        from repro.nn.functional import conv3d_backward

        rng = np.random.default_rng(hash((shape, kernel, stride)) % 2**32)
        x = rng.normal(size=(1, 2, *shape))
        w = rng.normal(size=(2, 2, kernel, kernel, kernel))
        d, h, wd = conv3d_output_shape(shape, (kernel,) * 3, (stride,) * 3,
                                       (pad,) * 3)
        if min(d, h, wd) < 1:
            return  # config produces an empty output volume
        with use_backend("fused"):
            y = conv3d_forward(x, w, None, stride, pad)
            dx, dw, _ = conv3d_backward(np.ones_like(y), x, w, stride, pad,
                                        with_bias=False)
            frozen = (y.copy(), dx.copy(), dw.copy())
            # hammer the arena with the same shapes: recycled scratch
            # must never overwrite previously returned results
            for _ in range(repeats):
                conv3d_forward(x, w, None, stride, pad)
                conv3d_backward(np.ones_like(y), x, w, stride, pad,
                                with_bias=False)
            pooled = workspace().retained()
            if (kernel, stride, pad) != (1, 1, 0):  # pointwise: no scratch
                assert pooled  # the scratch came back: the check is real
            for out, ref in zip((y, dx, dw), frozen):
                np.testing.assert_array_equal(out, ref)
                assert all(not np.shares_memory(out, buf) for buf in pooled)
