"""The fused Conv3D+BatchNorm+ReLU layer: routing and parity.

``FusedConvBNReLU3D`` takes the backend's fused kernel path only when
that preserves semantics (fusion-capable backend, local BN statistics,
uninstrumented children); otherwise it must transparently fall back to
the sequential ``conv -> bn -> act`` chain.  Both routes are pinned
against each other on the ``fused`` backend -- the sequential one forced
the way sync-BN and the profiler hooks force it -- for predictions,
gradients and running statistics, plus finite differences through the
whole triple.
"""

import numpy as np
import pytest

from repro.nn import UNet3D, check_module_gradients, use_compute_dtype
from repro.nn.kernels import use_backend
from repro.nn.layers.fused_block import FusedConvBNReLU3D


def _block(seed=0, cin=2, cout=3, **kw):
    return FusedConvBNReLU3D(cin, cout, rng=np.random.default_rng(seed),
                             **kw)


def _sequential(block):
    """Force the sequential route on the fused backend with a
    pass-through per-instance child forward, as the profiler hooks do."""
    block.bn.__dict__["forward"] = block.bn.forward
    assert not block.fusion_active()
    return block


def _x(seed=1, cin=2, shape=(6, 5, 4), dtype=np.float64):
    return np.random.default_rng(seed).normal(
        size=(2, cin, *shape)).astype(dtype, copy=False)


def _train_step(block, x):
    block.train()
    block.zero_grad()
    y = block(x)
    dy = np.random.default_rng(7).normal(size=y.shape).astype(
        y.dtype, copy=False)
    block.backward(dy)
    grads = {name: p.grad.copy() for name, p in block.named_parameters()}
    stats = (block.bn.running_mean.value.copy(),
             block.bn.running_var.value.copy())
    return y, grads, stats


class TestRouting:
    def test_fused_route_on_fusion_capable_backend(self):
        block = _block()
        with use_backend("fused"):
            assert block.fusion_active()
            block.train()
            block(_x())
            assert block._route == "fused"

    @pytest.mark.parametrize("backend", ["reference"])
    def test_sequential_route_on_other_backends(self, backend):
        block = _block()
        with use_backend(backend):
            assert not block.fusion_active()
            block.train()
            block(_x())
            assert block._route == "sequential"

    def test_sync_bn_forces_sequential(self):
        block = _block()
        block.bn.stats_reducer = lambda total, sq, count: (total, sq, count)
        with use_backend("fused"):
            assert not block.fusion_active()

    def test_instrumented_child_forces_sequential(self):
        """Per-instance forward hooks (profiler, model summary) only fire
        on the sequential route, so fusion must stand down."""
        block = _block()
        calls = []
        orig = block.bn.forward
        block.bn.__dict__["forward"] = lambda x: (calls.append(1),
                                                  orig(x))[1]
        with use_backend("fused"):
            assert not block.fusion_active()
            block.train()
            block(_x())
        assert calls  # the hook actually fired
        del block.bn.__dict__["forward"]
        with use_backend("fused"):
            assert block.fusion_active()


class TestParity:
    def test_train_step_matches_sequential_route(self):
        x = _x()
        with use_backend("fused"):
            y_seq, g_seq, stats_seq = _train_step(_sequential(_block()), x)
            y_fused, g_fused, stats_fused = _train_step(_block(), x)
        np.testing.assert_allclose(y_fused, y_seq, rtol=1e-9, atol=1e-12)
        assert g_fused.keys() == g_seq.keys()
        for name in g_seq:
            np.testing.assert_allclose(g_fused[name], g_seq[name],
                                       rtol=1e-9, atol=1e-12, err_msg=name)
        for s_f, s_s in zip(stats_fused, stats_seq):
            np.testing.assert_allclose(s_f, s_s, rtol=1e-9, atol=1e-12)

    def test_eval_mode_matches_sequential_route(self):
        x = _x()
        # train one step first so the running statistics are non-trivial
        with use_backend("fused"):
            block = _block()
            _train_step(block, x)
            block.eval()
            y_fused = block(x)
            block2 = _block()
            _train_step(block2, x)
            block2.eval()
            y_seq = _sequential(block2)(x)
        np.testing.assert_allclose(y_fused, y_seq, rtol=1e-9, atol=1e-12)

    def test_float32_parity_between_routes(self):
        x = _x(dtype=np.float32)
        with use_compute_dtype("float32"):
            with use_backend("fused"):
                y_seq, g_seq, _ = _train_step(_sequential(_block()), x)
                y_fused, g_fused, _ = _train_step(_block(), x)
        assert y_fused.dtype == np.float32
        np.testing.assert_allclose(y_fused, y_seq, rtol=1e-4, atol=1e-5)
        for name in g_seq:
            np.testing.assert_allclose(g_fused[name], g_seq[name],
                                       rtol=1e-3, atol=1e-4, err_msg=name)

    def test_gradcheck_through_fused_route(self):
        # use_bias=False: under BN the conv bias cancels exactly, so its
        # analytic gradient is legitimately zero and finite differences
        # cannot resolve it.
        block = _block(use_bias=False)
        x = _x(shape=(4, 4, 3))
        with use_backend("fused"):
            assert block.fusion_active()
            errs = check_module_gradients(block, x)
        assert max(errs.values()) < 1e-5, errs


class TestInputGradSkip:
    def test_need_dx_false_returns_none_on_fused_route(self):
        block = _block(input_grad=False)
        x = _x()
        with use_backend("fused"):
            block.train()
            y = block(x)
            dx = block.backward(np.ones_like(y))
        assert dx is None
        # parameter gradients still flow
        assert float(np.abs(block.conv.w.grad).sum()) > 0.0

    def test_param_grads_unaffected_by_dx_skip(self):
        x = _x()
        with use_backend("fused"):
            _, g_full, _ = _train_step(_block(), x)
            _, g_skip, _ = _train_step(_block(input_grad=False), x)
        for name in g_full:
            np.testing.assert_allclose(g_skip[name], g_full[name],
                                       rtol=1e-12, atol=0, err_msg=name)

    def test_unet_first_encoder_block_skips_input_grad(self):
        net = UNet3D(2, 1, base_filters=2, depth=2, norm="batch",
                     rng=np.random.default_rng(3))
        first = net.enc_blocks[0].body.layers[0]
        assert isinstance(first, FusedConvBNReLU3D)
        assert first.input_grad is False
        # every other fused stage still propagates dx
        others = [
            m for name, m in net.named_modules()
            if isinstance(m, FusedConvBNReLU3D) and m is not first
        ]
        assert others and all(m.input_grad for m in others)


class TestModuleContract:
    def test_children_visible_to_module_walks(self):
        block = _block()
        names = {name for name, _ in block.named_parameters()}
        assert {"conv.w", "conv.b", "bn.gamma", "bn.beta"} <= names

    def test_state_dict_round_trip(self):
        src, dst = _block(seed=0), _block(seed=5)
        dst.load_state_dict(src.state_dict())
        np.testing.assert_array_equal(dst.conv.w.value, src.conv.w.value)
        np.testing.assert_array_equal(dst.bn.running_mean.value,
                                      src.bn.running_mean.value)

    def test_backward_before_forward_raises(self):
        block = _block()
        with use_backend("fused"):
            with pytest.raises(RuntimeError, match="backward"):
                block.backward(np.zeros((2, 3, 6, 5, 4)))
