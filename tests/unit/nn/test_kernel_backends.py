"""Cross-validation of the production ``fused`` conv backend against the
reference.

The ``reference`` einsum kernels are the ground truth; the tiled
``fused`` backend must agree with them (and with finite differences) at
every stride/padding/kernel combination the U-Net uses -- plus the
registry plumbing that selects between them.  The fused backend is
additionally pinned with tiling *forced on* (a tiny
``fused.TILE_BYTES``).
"""

import numpy as np
import pytest

from repro.nn import (
    Conv3D,
    ConvTranspose3D,
    UNet3D,
    check_module_gradients,
    use_compute_dtype,
    workspace,
)
from repro.nn.functional import (
    conv3d_backward,
    conv3d_forward,
    conv_transpose3d_backward,
    conv_transpose3d_forward,
    release_conv_ctx,
)
from repro.nn.kernels import (
    available_backends,
    fused,
    get_backend,
    kernel_seconds_snapshot,
    registry,
    set_backend,
    use_backend,
)

rng = np.random.default_rng(42)

# every (kernel, stride, pad) combination exercised by the model, plus
# the asymmetric cases the functional layer accepts.  'same' padding is
# a layer-level notion (odd kernels only); resolve it like Conv3D does.
CONV_CONFIGS = [
    (kernel, stride, pad)
    for kernel in (1, 2, 3)
    for stride in (1, 2)
    for pad in ("same", "valid", 1)
    if not (pad == "same" and kernel % 2 == 0)
]


def _resolve_pad(pad, kernel: int) -> int:
    if pad == "same":
        return kernel // 2
    if pad == "valid":
        return 0
    return pad


def _conv_tensors(kernel, cin=2, cout=3, shape=(6, 5, 4)):
    x = rng.normal(size=(2, cin, *shape))
    w = rng.normal(size=(cout, cin, kernel, kernel, kernel))
    b = rng.normal(size=cout)
    return x, w, b


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"reference", "fused"} <= set(names)

    def test_only_fused_supports_fusion(self):
        for name in available_backends():
            with use_backend(name) as backend:
                assert backend.supports_fusion == (name == "fused")

    def test_default_backend_is_fused(self):
        assert registry.DEFAULT_BACKEND == "fused"

    def test_set_backend_returns_previous(self):
        before = get_backend()
        prev = set_backend("reference")
        try:
            assert prev is before
            assert get_backend().name == "reference"
        finally:
            set_backend(prev)

    def test_use_backend_restores_on_exit(self):
        before = get_backend()
        with use_backend("reference") as active:
            assert active.name == "reference"
            assert get_backend() is active
        assert get_backend() is before

    def test_use_backend_restores_on_error(self):
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("cudnn")

    def test_dispatch_feeds_kernel_seconds_ledger(self):
        x, w, b = _conv_tensors(3)
        with use_backend("fused"):
            conv3d_forward(x, w, b, 1, 1)
            snap = kernel_seconds_snapshot()
        assert snap.get(("fused", "conv3d_forward"), 0.0) > 0.0


CANDIDATES = ("fused",)


class TestConv3DParity:
    @pytest.mark.parametrize("backend", CANDIDATES)
    @pytest.mark.parametrize("kernel,stride,pad", CONV_CONFIGS)
    def test_forward_matches_reference(self, backend, kernel, stride, pad):
        x, w, b = _conv_tensors(kernel)
        pad = _resolve_pad(pad, kernel)
        with use_backend("reference"):
            y_ref = conv3d_forward(x, w, b, stride, pad)
        with use_backend(backend):
            y = conv3d_forward(x, w, b, stride, pad)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("backend", CANDIDATES)
    @pytest.mark.parametrize("kernel,stride,pad", CONV_CONFIGS)
    def test_backward_matches_reference(self, backend, kernel, stride, pad):
        x, w, b = _conv_tensors(kernel)
        pad = _resolve_pad(pad, kernel)
        with use_backend("reference"):
            y = conv3d_forward(x, w, b, stride, pad)
            dy = rng.normal(size=y.shape)
            ref = conv3d_backward(dy, x, w, stride, pad)
        with use_backend(backend):
            out = conv3d_backward(dy, x, w, stride, pad)
        for g, r, label in zip(out, ref, ("dx", "dw", "db")):
            np.testing.assert_allclose(g, r, rtol=1e-9, atol=1e-11,
                                       err_msg=label)

    @pytest.mark.parametrize("backend", CANDIDATES)
    @pytest.mark.parametrize("kernel,stride,pad", CONV_CONFIGS)
    def test_backward_with_ctx_reuse_matches_reference(self, backend, kernel,
                                                       stride, pad):
        """The stashed im2col patches must give the same gradients."""
        x, w, b = _conv_tensors(kernel)
        pad = _resolve_pad(pad, kernel)
        with use_backend("reference"):
            y = conv3d_forward(x, w, b, stride, pad)
            dy = rng.normal(size=y.shape)
            ref = conv3d_backward(dy, x, w, stride, pad)
        with use_backend(backend):
            ctx: dict = {}
            conv3d_forward(x, w, b, stride, pad, ctx=ctx)
            out = conv3d_backward(dy, x, w, stride, pad, ctx=ctx)
            release_conv_ctx(ctx)
        for g, r, label in zip(out, ref, ("dx", "dw", "db")):
            np.testing.assert_allclose(g, r, rtol=1e-9, atol=1e-11,
                                       err_msg=label)


class TestConvTransposeParity:
    @pytest.mark.parametrize("backend", CANDIDATES)
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (2, 1),
                                               (3, 1)])
    def test_forward_backward_match_reference(self, backend, kernel, stride):
        x = rng.normal(size=(2, 3, 4, 3, 2))
        w = rng.normal(size=(3, 2, kernel, kernel, kernel))
        b = rng.normal(size=2)
        with use_backend("reference"):
            y_ref = conv_transpose3d_forward(x, w, b, stride)
            dy = rng.normal(size=y_ref.shape)
            ref = conv_transpose3d_backward(dy, x, w, stride)
        with use_backend(backend):
            y = conv_transpose3d_forward(x, w, b, stride)
            out = conv_transpose3d_backward(dy, x, w, stride)
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-11)
        for g, r, label in zip(out, ref, ("dx", "dw", "db")):
            np.testing.assert_allclose(g, r, rtol=1e-9, atol=1e-11,
                                       err_msg=label)


class TestGradcheck:
    """Finite differences against the layers the U-Net instantiates."""

    @pytest.mark.parametrize("backend", CANDIDATES)
    @pytest.mark.parametrize("kernel,stride,pad", [
        (3, 1, "same"),   # every ConvBlock conv
        (1, 1, 0),        # the 1x1x1 segmentation head
        (3, 2, 1),        # strided variant
        (2, 1, "valid"),  # even kernel
    ])
    def test_conv3d_gradients(self, backend, kernel, stride, pad):
        layer = Conv3D(2, 3, kernel, stride=stride, padding=pad,
                       rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 2, 5, 5, 4))
        with use_backend(backend):
            errs = check_module_gradients(layer, x)
        assert max(errs.values()) < 1e-6, errs

    @pytest.mark.parametrize("backend", CANDIDATES)
    def test_conv_transpose3d_gradients(self, backend):
        layer = ConvTranspose3D(3, 2, 2, stride=2,
                                rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 3, 3, 2))
        with use_backend(backend):
            errs = check_module_gradients(layer, x)
        assert max(errs.values()) < 1e-6, errs

    def test_conv3d_gradients_with_tiling_forced(self, monkeypatch):
        """Tiny tile budget: the fused lowering must split every conv
        into many output-depth tiles and still pass finite differences."""
        monkeypatch.setattr(fused, "TILE_BYTES", 8 * 1024)
        assert len(fused._plan_tiles(2, 18, 5, 5, 4, 8)) == 5
        layer = Conv3D(2, 3, 3, padding="same",
                       rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 2, 5, 5, 4))
        with use_backend("fused"):
            errs = check_module_gradients(layer, x)
        assert max(errs.values()) < 1e-6, errs


class TestFusedTiling:
    """The fused backend's tiled path (forced on via a tiny tile budget)
    against the reference."""

    @pytest.fixture(autouse=True)
    def _tiny_tiles(self, monkeypatch):
        # three uneven output-depth tiles for the forward, four input-depth
        # tiles for the unit-stride input gradient
        monkeypatch.setattr(fused, "TILE_BYTES", 36 * 1024)
        assert fused._plan_tiles(2, 18, 8, 7, 6, 8) == [(0, 3), (3, 6),
                                                         (6, 8)]
        assert len(fused._plan_tiles(2, 27, 8, 7, 6, 8)) == 4

    def _run(self, backend):
        g = np.random.default_rng(1234)  # identical tensors every call
        x = g.normal(size=(2, 2, 8, 7, 6))
        w = g.normal(size=(3, 2, 3, 3, 3))
        b = g.normal(size=3)
        with use_backend(backend):
            ctx: dict = {}
            y = conv3d_forward(x, w, b, 1, 1, ctx=ctx)
            dy = np.random.default_rng(9).normal(size=y.shape)
            dx, dw, db = conv3d_backward(dy, x, w, 1, 1, ctx=ctx)
            release_conv_ctx(ctx)
        return y, dx, dw, db

    def test_tiled_path_matches_reference(self):
        ref = self._run("reference")
        out = self._run("fused")
        for o, r, label in zip(out, ref, ("y", "dx", "dw", "db")):
            np.testing.assert_allclose(o, r, rtol=1e-9, atol=1e-11,
                                       err_msg=label)

    def test_workspace_balanced_after_tiled_run(self):
        # delta, not absolute: earlier tests' layers may still hold a
        # live forward ctx (released lazily on their next forward)
        before = workspace().stats()["in_use_bytes"]
        self._run("fused")
        assert workspace().stats()["in_use_bytes"] == before

    def test_outputs_do_not_alias_workspace(self):
        """Forward/backward results must be freshly allocated -- a later
        kernel call reusing arena scratch must not mutate them."""
        y1, dx1, dw1, db1 = self._run("fused")
        snap = (y1.copy(), dx1.copy(), dw1.copy(), db1.copy())
        self._run("fused")  # reuses the same arena buffers
        for a, b, label in zip((y1, dx1, dw1, db1), snap,
                               ("y", "dx", "dw", "db")):
            assert np.array_equal(a, b), f"{label} aliases the workspace"


class TestModelLevelParity:
    @pytest.mark.parametrize("backend", CANDIDATES)
    def test_unet_step_grads_match_reference(self, backend):
        x = np.random.default_rng(5).normal(size=(1, 2, 8, 8, 8))

        def grads(name):
            with use_backend(name):
                net = UNet3D(2, 1, base_filters=2, depth=2, norm="none",
                             rng=np.random.default_rng(3))
                net.train()
                net.zero_grad()
                pred = net(x)
                net.backward(np.ones_like(pred) / pred.size)
                return pred, net.get_flat_grads()

        pred_ref, g_ref = grads("reference")
        pred, g = grads(backend)
        np.testing.assert_allclose(pred, pred_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("backend", CANDIDATES)
    def test_float32_path_parity(self, backend):
        x64 = np.random.default_rng(5).normal(size=(2, 2, 6, 6, 4))
        with use_compute_dtype("float32"):
            layer = Conv3D(2, 3, 3, padding="same",
                           rng=np.random.default_rng(0))
            assert layer.w.value.dtype == np.float32
            x = x64.astype(np.float32)
            with use_backend("reference"):
                y_ref = layer(x)
                layer.zero_grad()
                layer.backward(np.ones_like(y_ref))
                gw_ref = layer.w.grad.copy()
            with use_backend(backend):
                y = layer(x)
                layer.zero_grad()
                layer.backward(np.ones_like(y))
                gw = layer.w.grad.copy()
        assert y_ref.dtype == np.float32 and y.dtype == np.float32
        np.testing.assert_allclose(y, y_ref, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-4, atol=1e-4)
