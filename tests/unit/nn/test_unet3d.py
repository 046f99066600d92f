"""3D U-Net architecture tests (experiment E6: the Fig 2 model)."""

import numpy as np
import pytest

from repro.nn import PAPER_INPUT_SHAPE, PAPER_OUTPUT_SHAPE, UNet3D
from repro.nn.kernels import use_backend

rng = np.random.default_rng(3)


def tiny(depth=3, base=2, in_ch=2, **kw):
    return UNet3D(in_channels=in_ch, out_channels=1, base_filters=base,
                  depth=depth, rng=np.random.default_rng(0), **kw)


class TestArchitecture:
    def test_paper_filter_progression(self):
        """Fig 2: filters at step s are 8 * 2**(s-1) -> [8, 16, 32, 64]."""
        net = UNet3D(4, 1, 8, 4, rng=rng)
        assert net.filters == [8, 16, 32, 64]

    def test_paper_parameter_counts(self):
        """The paper reports 406,793 parameters (Section III-A).

        The closest canonical readings of the architecture text give
        352,513 (synthesis filters halved at the up-convolution, as the
        text states) and 410,361 (up-convolution preserves channels).
        Both counts include the BatchNorm moving statistics, as Keras'
        count_params does.  EXPERIMENTS.md discusses the gap.
        """
        assert UNet3D(4, 1, 8, 4, transpose_halves=True, rng=rng).num_params() == 352_513
        assert UNet3D(4, 1, 8, 4, transpose_halves=False, rng=rng).num_params() == 410_361

    def test_output_shape_matches_input_spatial(self):
        net = tiny()
        x = rng.normal(size=(2, 2, 8, 8, 8))
        y = net(x)
        assert y.shape == (2, 1, 8, 8, 8)

    def test_paper_io_shapes_statically(self):
        """4x240x240x152 in, 1x240x240x152 out; validate without running."""
        net = UNet3D(4, 1, 8, 4, rng=rng)
        net.validate_input_shape((1, *PAPER_INPUT_SHAPE))
        assert PAPER_OUTPUT_SHAPE[0] == net.out_channels
        assert net.min_divisor() == 8
        assert all(d % 8 == 0 for d in PAPER_INPUT_SHAPE[1:])

    def test_output_is_probability(self):
        net = tiny()
        y = net(rng.normal(size=(1, 2, 8, 8, 8)) * 10)
        assert (y >= 0).all() and (y <= 1).all()

    def test_min_divisor(self):
        assert tiny(depth=3).min_divisor() == 4
        assert tiny(depth=4).min_divisor() == 8

    def test_invalid_spatial_dims_rejected(self):
        net = tiny(depth=3)
        with pytest.raises(ValueError, match="divisible"):
            net(rng.normal(size=(1, 2, 6, 8, 8)))

    def test_wrong_channels_rejected(self):
        net = tiny()
        with pytest.raises(ValueError, match="channels"):
            net(rng.normal(size=(1, 3, 8, 8, 8)))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            UNet3D(depth=1)
        with pytest.raises(ValueError):
            UNet3D(base_filters=0)

    def test_155_slices_rejected_152_accepted(self):
        """The paper crops 240x240x155 -> 240x240x152 precisely so the
        three poolings divide evenly (Section IV-A)."""
        net = UNet3D(4, 1, 8, 4, rng=rng)
        with pytest.raises(ValueError, match="crop"):
            net.validate_input_shape((1, 4, 240, 240, 155))
        net.validate_input_shape((1, 4, 240, 240, 152))


class TestTraining:
    def test_backward_returns_input_gradient(self):
        net = tiny(input_grad=True)
        x = rng.normal(size=(1, 2, 8, 8, 8))
        y = net(x)
        dx = net.backward(np.ones_like(y))
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()

    def test_all_parameters_receive_gradient(self):
        net = tiny()
        x = rng.normal(size=(2, 2, 8, 8, 8))
        y = net(x)
        net.backward(rng.normal(size=y.shape))
        for name, p in net.named_parameters():
            if p.trainable:
                assert np.abs(p.grad).sum() > 0, f"{name} got no gradient"

    def test_gradcheck_tiny_net(self):
        """Finite-difference check on a minimal U-Net.

        BatchNorm is disabled (batch-statistics coupling makes numeric
        differencing noisy) and the truncated-normal weights are scaled
        up: at the default 0.05 stddev a two-level net's pre-activations
        sit so close to zero that perturbing a scalar bias sweeps whole
        feature maps across the ReLU kink, which breaks central
        differences without indicating a gradient bug.
        """
        from repro.nn import check_module_gradients

        net = UNet3D(1, 1, 2, 2, use_batchnorm=False,
                     rng=np.random.default_rng(0), input_grad=True)
        for name, p in net.named_parameters():
            if name.endswith(".w"):
                p.value *= 20.0
        x = rng.normal(size=(1, 1, 4, 4, 4)) + 0.1
        errs = check_module_gradients(net, x, h=1e-5)
        assert max(errs.values()) < 5e-3, errs

    def test_backward_before_forward_raises(self):
        net = tiny()
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 1, 8, 8, 8)))

    def test_predict_restores_training_mode(self):
        net = tiny()
        assert net.training
        net.predict(rng.normal(size=(1, 2, 8, 8, 8)))
        assert net.training

    def test_predict_deterministic_in_eval(self):
        net = tiny()
        # Populate running stats first.
        net(rng.normal(size=(2, 2, 8, 8, 8)))
        x = rng.normal(size=(1, 2, 8, 8, 8))
        np.testing.assert_array_equal(net.predict(x), net.predict(x))

    def test_state_dict_roundtrip_preserves_output(self):
        net = tiny()
        x = rng.normal(size=(1, 2, 8, 8, 8))
        net(rng.normal(size=(2, 2, 8, 8, 8)))  # touch running stats
        y1 = net.predict(x)
        state = net.state_dict()
        net2 = tiny()
        net2.load_state_dict(state)
        np.testing.assert_allclose(net2.predict(x), y1)


class TestVariants:
    def test_transpose_halves_changes_param_count(self):
        a = tiny(transpose_halves=True).num_params()
        b = tiny(transpose_halves=False).num_params()
        assert b > a

    def test_no_batchnorm_variant(self):
        net = tiny(use_batchnorm=False)
        names = [n for n, _ in net.named_parameters()]
        assert not any("gamma" in n for n in names)
        y = net(rng.normal(size=(1, 2, 8, 8, 8)))
        assert y.shape == (1, 1, 8, 8, 8)

    def test_multiclass_head(self):
        net = UNet3D(2, 4, 2, 2, rng=rng)
        y = net(rng.normal(size=(1, 2, 4, 4, 4)))
        assert y.shape == (1, 4, 4, 4, 4)

    def test_bottleneck_dropout_variant(self):
        net = UNet3D(2, 1, 2, 2, bottleneck_dropout=0.5,
                     use_batchnorm=False, rng=np.random.default_rng(0),
                     input_grad=True)
        x = rng.normal(size=(2, 2, 8, 8, 8))
        y1 = net(x)
        y2 = net(x)
        assert not np.array_equal(y1, y2)  # stochastic in train mode
        np.testing.assert_array_equal(net.predict(x), net.predict(x))
        dx = net.backward(np.ones_like(y2))
        assert dx.shape == x.shape

    def test_dropout_zero_is_absent(self):
        net = tiny()
        assert net.bottleneck_dropout is None

    def test_seeded_construction_is_reproducible(self):
        a = UNet3D(2, 1, 2, 2, rng=np.random.default_rng(5))
        b = UNet3D(2, 1, 2, 2, rng=np.random.default_rng(5))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)


def _backward_under(backend, norm, input_grad):
    """One float64 train-mode forward/backward of a seeded tiny U-Net
    under ``backend``; returns ``(backward's return value, net)``."""
    net = UNet3D(2, 1, 2, 2, norm=norm, dtype="float64",
                 rng=np.random.default_rng(7), input_grad=input_grad)
    x = np.random.default_rng(8).normal(size=(2, 2, 8, 8, 8))
    with use_backend(backend):
        y = net(x)
        dx = net.backward(np.random.default_rng(9).normal(size=y.shape))
    return dx, net


class TestInputGradContract:
    """``UNet3D.backward`` returns ``dx`` only when built with
    ``input_grad=True`` -- the same answer on every backend and norm,
    although only the fused route actually skips the computation."""

    @pytest.mark.parametrize("norm", ["batch", None])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_default_returns_none_and_trains_every_parameter(
            self, backend, norm):
        dx, net = _backward_under(backend, norm, input_grad=False)
        assert dx is None
        for name, p in net.named_parameters():
            if p.trainable:
                assert np.abs(p.grad).sum() > 0, f"{name} got no gradient"

    @pytest.mark.parametrize("norm", ["batch", None])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_input_grad_true_returns_dx_matching_reference(
            self, backend, norm):
        dx, _ = _backward_under(backend, norm, input_grad=True)
        ref, _ = _backward_under("reference", norm, input_grad=True)
        assert dx.shape == (2, 2, 8, 8, 8)
        np.testing.assert_allclose(dx, ref, rtol=1e-9, atol=1e-12)


class TestBatchInvariance:
    """Eval-mode forward of a batch equals the per-sample forwards bit
    for bit under the default backend: the property served-equals-
    offline inference rests on, whatever batch a request rides in."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("side", [16, 32])
    def test_batched_forward_equals_per_sample(self, side, dtype):
        net = UNet3D(4, 1, 4, 2, dtype=dtype, rng=np.random.default_rng(0))
        data = np.random.default_rng(1)
        net(data.normal(size=(2, 4, 8, 8, 8)))  # touch running stats
        net.eval()
        x = data.normal(size=(4, 4, side, side, side)).astype(dtype)
        batched = net.forward(x)
        single = np.concatenate([net.forward(x[i:i + 1]) for i in range(4)])
        assert batched.dtype == np.dtype(dtype)
        assert np.array_equal(batched, single)
