"""Cross-validation of the production ``fused`` conv backend against the
reference.

The ``reference`` einsum kernels are the ground truth; the
depth-streaming ``fused`` backend must agree with them (and with finite
differences) at every stride/padding/kernel combination the U-Net uses
-- plus the registry plumbing that selects between them.  The fused
backend is additionally run with many small chunks *forced* (a tiny
``fused.CHUNK_BYTES``) and its outputs are pinned by sha256.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import (
    Conv3D,
    ConvTranspose3D,
    SoftDiceLoss,
    UNet3D,
    check_module_gradients,
    use_compute_dtype,
    workspace,
)
from repro.nn.functional import (
    conv3d_backward,
    conv3d_bn_relu_backward,
    conv3d_bn_relu_forward,
    conv3d_forward,
    conv_transpose3d_backward,
    conv_transpose3d_forward,
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

from ...blas_core import pin_message

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
    def test_backward_after_forward_matches_reference(self, backend, kernel,
                                                      stride, pad):
        """A training step's order: the backward re-gathers its slice
        buffers into the arena blocks the forward just returned.  It must
        give the reference gradients, leave the forward's output intact
        and hand every scratch block back."""
        x, w, b = _conv_tensors(kernel)
        pad = _resolve_pad(pad, kernel)
        with use_backend("reference"):
            y_ref = conv3d_forward(x, w, b, stride, pad)
            dy = rng.normal(size=y_ref.shape)
            ref = conv3d_backward(dy, x, w, stride, pad)
        before = workspace().stats()["in_use_bytes"]
        with use_backend(backend):
            y = conv3d_forward(x, w, b, stride, pad)
            y_snap = y.copy()
            out = conv3d_backward(dy, x, w, stride, pad)
        assert workspace().stats()["in_use_bytes"] == before
        assert np.array_equal(y, y_snap), "y aliases the workspace"
        np.testing.assert_allclose(y, y_ref, rtol=1e-9, atol=1e-11)
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

    def test_conv3d_gradients_with_chunking_forced(self, monkeypatch):
        """Tiny chunk budget: the fused lowering must walk every pass one
        padded slice at a time and still pass finite differences."""
        monkeypatch.setattr(fused, "CHUNK_BYTES", 8 * 1024)
        x = np.random.default_rng(1).normal(size=(2, 2, 5, 5, 4))
        assert fused._chunk_depth(x, (3, 3, 3), (1, 1, 1), (5, 5, 4)) == 1
        layer = Conv3D(2, 3, 3, padding="same",
                       rng=np.random.default_rng(0))
        with use_backend("fused"):
            errs = check_module_gradients(layer, x)
        assert max(errs.values()) < 1e-6, errs


OUTPUT_LABELS = ("y", "mean", "var", "dx", "dw", "db", "dgamma", "dbeta",
                 "y_eval", "conv y", "conv dx", "conv dw", "conv db")


def _fused_outputs(n, cin, cout, shape, stride, dtype):
    """The 13 outputs of the fused 3^3 (pad 1) paths on seeded tensors:
    the Conv+BN+ReLU training forward and backward, the eval fold, and
    the plain conv forward and backward."""
    g = np.random.default_rng(77)
    x = g.normal(size=(n, cin, *shape)).astype(dtype)
    w = g.normal(size=(cout, cin, 3, 3, 3)).astype(dtype)
    b, beta, rmean = (g.normal(size=cout).astype(dtype) for _ in range(3))
    gamma, rvar = (g.uniform(0.5, 1.5, cout).astype(dtype)
                   for _ in range(2))
    out_shape = tuple((side - 1) // stride + 1 for side in shape)
    dy = g.normal(size=(n, cout, *out_shape)).astype(dtype)
    with use_backend("fused"):
        ctx = {}
        y, mean, var = conv3d_bn_relu_forward(
            x, w, b, gamma, beta, rmean, rvar, 1e-5, stride, 1,
            training=True, ctx=ctx)
        grads = conv3d_bn_relu_backward(dy, x, w, gamma, stride, 1, ctx=ctx)
        y_eval = conv3d_bn_relu_forward(
            x, w, b, gamma, beta, rmean, rvar, 1e-5, stride, 1,
            training=False)[0]
        y_conv = conv3d_forward(x, w, b, stride, 1)
        conv_grads = conv3d_backward(dy, x, w, stride, 1)
    return (y, mean, var, *grads, y_eval, y_conv, *conv_grads)


def _digests(outputs):
    return [hashlib.sha256(o.tobytes()).hexdigest()[:16] for o in outputs]


# (n, cin, cout, shape, stride) of the pinned cases: the small chunked
# case below, the 32^3 level-0 decoder conv whose slice buffer is
# gathered one slice per chunk at the default budget, and a stride-2 one
DIGEST_CASES = {
    "small": (2, 2, 3, (8, 14, 6), 1),
    "one-slice": (1, 16, 8, (32, 32, 32), 1),
    "stride2": (2, 3, 4, (9, 8, 7), 2),
}

#: sha256 (first 16 hex digits) of each of the 13 outputs, in
#: OUTPUT_LABELS order, recorded on the output-depth tiled kernel the
#: streaming one replaced; the unit-stride ``dw`` and ``conv dw`` were
#: re-recorded when the weight gradient moved into the input
#: gradient's walk over the padded dy.  Like TestShippedModelBytes
#: they depend on the GEMM kernels OpenBLAS picks for the CPU, and were
#: recorded on the core family ``blas_core.RECORDED_CORE`` names.
PINNED_DIGESTS = {
    ("one-slice", "float64"): (
        "f80be6eb3ad377de", "0993a38f6387faaa", "81aa5d184c242a78",
        "c5cadfbbeaf0d91b", "0ae78452249f6a13", "1a4015d60c504b8d",
        "a5cc498018e77d34", "61f9c636df8e4f32", "fa025d294ba4235a",
        "95a61bcdcff7b822", "1f95078c48bf473d", "3234553c856c84b4",
        "c8e64968cb6bfb05",
    ),
    ("one-slice", "float32"): (
        "9d850cfd386b330e", "785b614ef6442b2c", "7d61db42f666eb9d",
        "7bac03a2c655b925", "b37a9fe7d5db6c43", "cf261a02424f3be8",
        "ff9547482525ef98", "b527333283cc232d", "175a389436f37ffa",
        "bc18c74a7715564d", "82f0642f1fbda0f5", "1129326f566cb3a4",
        "6cfceb5719bb1c9c",
    ),
    ("small", "float64"): (
        "de03cc175eedb4bf", "225853281a10d28c", "79e59443afdfc905",
        "3d2b511c2a17dad4", "87bce77d2e3f0396", "7a949cb98317a65a",
        "2952a62d3955dcbd", "5867e1f9dda051a6", "88b5adcabafb7c42",
        "0ed5d8220139add8", "564284b99467919e", "29d10bcf93351e9c",
        "685e6bb759c826c6",
    ),
    ("small", "float32"): (
        "110cd92d0e4dd805", "cce6dbea83b35bf9", "d8fd549d2e3c05c2",
        "c026c8767c6a2922", "dc8e38ee97d04215", "7ab424026bd570ba",
        "71419ccf65b4830f", "dcc447f82e7f965e", "346821c9c07995ec",
        "93dc515ca55f2ea0", "6e9d2e922ce77edd", "2289784e6eeb026a",
        "2307e94a5289e295",
    ),
    ("stride2", "float64"): (
        "4a0b2c4c7cf6690b", "b70839f4b2d4f68a", "24acb11d6980b232",
        "298d3feafb20b9ab", "4415af9471cc6d86", "7dac5f241ae81916",
        "4ae79fa8ae99a08e", "df89631add53633f", "20ee61752e9a2f97",
        "b489f7a4593a82fa", "37af8354d0f798a3", "48743a3ad66686d1",
        "3b6b243a4307282b",
    ),
    ("stride2", "float32"): (
        "a8acce47e4876a6b", "477ea324d24ec097", "8f69bd5f0e8a639c",
        "1a5c59f3b83a4875", "4d348458abf43c94", "a6d1a0075f496764",
        "024737177dd70ce4", "96370f842a038a0a", "dc524bf5e4d46758",
        "0572844e0debdb6f", "e55b3d12e42f7bb3", "ea5ebdc48fc5d285",
        "814c7112cee12812",
    ),
}


class TestFusedChunking:
    """The fused backend's streaming path with small chunks forced (a
    tiny chunk budget) against the reference, the pinned bytes and its
    own counted work."""

    def _run(self, backend):
        g = np.random.default_rng(1234)  # identical tensors every call
        x = g.normal(size=(2, 2, 8, 7, 6))
        w = g.normal(size=(3, 2, 3, 3, 3))
        b = g.normal(size=3)
        with use_backend(backend):
            y = conv3d_forward(x, w, b, 1, 1)
            dy = np.random.default_rng(9).normal(size=y.shape)
            dx, dw, db = conv3d_backward(dy, x, w, 1, 1)
        return y, dx, dw, db

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # three chunks of the 10 padded input slices for the forward and
        # the weight gradient, five for the unit-stride input gradient
        monkeypatch.setattr(fused, "CHUNK_BYTES", 36 * 1024)
        x, dy = np.empty((2, 2, 8, 7, 6)), np.empty((2, 3, 8, 7, 6))
        assert fused._chunk_depth(x, (3, 3, 3), (1, 1, 1), (8, 7, 6)) == 3
        assert fused._chunk_depth(dy, (3, 3, 3), (1, 1, 1), (8, 7, 6)) == 2

    @pytest.mark.usefixtures("small_chunks")
    def test_chunked_path_matches_reference(self):
        ref = self._run("reference")
        out = self._run("fused")
        for o, r, label in zip(out, ref, ("y", "dx", "dw", "db")):
            np.testing.assert_allclose(o, r, rtol=1e-9, atol=1e-11,
                                       err_msg=label)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_results_independent_of_chunk_budget(self, monkeypatch, dtype):
        """Every kernel output is bit-identical one slice per chunk, a
        few slices per chunk and the whole depth as one chunk: each
        output slice adds its taps in the same order, and the BN sums
        and the weight gradient reduce per depth slice and sum once."""
        runs = []
        for budget in (8 * 1024, 36 * 1024, 1 << 40):
            monkeypatch.setattr(fused, "CHUNK_BYTES", budget)
            runs.append(_fused_outputs(2, 2, 3, (8, 14, 6), 1, dtype))
        for label, *outs in zip(OUTPUT_LABELS, *runs):
            assert all(np.array_equal(outs[0], o) for o in outs[1:]), label

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_outputs_pinned(self, case, dtype):
        outputs = _fused_outputs(*DIGEST_CASES[case], dtype)
        assert all(o.dtype == np.dtype(dtype) for o in outputs)
        pinned = PINNED_DIGESTS[case, np.dtype(dtype).name]
        for label, got, want in zip(OUTPUT_LABELS, _digests(outputs),
                                    pinned):
            assert got == want, pin_message(label)

    def test_each_padded_slice_padded_and_gathered_once(self, monkeypatch):
        """Per pass, the chunks partition the padded input depth: every
        slice an output reads is padded once and gathered once -- no
        halo re-gathered at a chunk edge."""
        padded, gathered = [], []
        pad_chunk, gather = fused._pad_chunk, fused._gather_slab2d

        def count_pad(x, s0, pad, slab):
            padded.append((x.shape[1], s0, slab.shape[2]))
            pad_chunk(x, s0, pad, slab)

        def count_gather(xslab, kernel_hw, stride_hw, out):
            gathered.append((xslab.shape[1], xslab.shape[2]))
            gather(xslab, kernel_hw, stride_hw, out)

        monkeypatch.setattr(fused, "_pad_chunk", count_pad)
        monkeypatch.setattr(fused, "_gather_slab2d", count_gather)
        g = np.random.default_rng(3)
        x = g.normal(size=(2, 2, 8, 7, 6))
        w = g.normal(size=(3, 2, 3, 3, 3))
        b, gamma, beta = g.normal(size=3), np.ones(3), np.zeros(3)
        dy = g.normal(size=(2, 3, 8, 7, 6))
        dy2 = g.normal(size=(2, 3, 4, 4, 3))
        stats = (np.zeros(3), np.ones(3), 1e-5)
        ctx = {}
        # (chunk budget, call, {channels of the streamed input: padded
        # slices}); 36 KiB gives chunks of 3 slices of x and 2 of dy at
        # stride 1, 8 KiB chunks of 2 slices of x at stride 2.  A
        # unit-stride backward streams only dy: its one walk gives dx
        # and dw.  Without dx (a first layer) it streams only x.
        def train_forward():
            conv3d_bn_relu_forward(x, w, b, gamma, beta, *stats, 1, 1,
                                   training=True, ctx=ctx)

        passes = [
            (36, lambda: conv3d_forward(x, w, b, 1, 1), {2: 10}),
            (36, lambda: conv3d_backward(dy, x, w, 1, 1), {3: 10}),
            (36, train_forward, {2: 10}),
            (36, lambda: conv3d_bn_relu_backward(dy, x, w, gamma, 1, 1,
                                                 ctx=ctx), {3: 10}),
            (36, train_forward, {2: 10}),
            (36, lambda: conv3d_bn_relu_backward(
                dy, x, w, gamma, 1, 1, ctx=ctx, need_dx=False), {2: 10}),
            (36, lambda: conv3d_bn_relu_forward(
                x, w, b, gamma, beta, *stats, 1, 1, training=False),
             {2: 10}),
            (8, lambda: conv3d_forward(x, w, b, 2, 1), {2: 9}),
            (8, lambda: conv3d_backward(dy2, x, w, 2, 1), {2: 9}),
        ]
        with use_backend("fused"):
            for i, (kib, call, slices) in enumerate(passes):
                monkeypatch.setattr(fused, "CHUNK_BYTES", kib * 1024)
                padded.clear()
                gathered.clear()
                call()
                assert {c for c, _ in gathered} == set(slices), i
                for c, S in slices.items():
                    spans = sorted((s0, s0 + gd) for cc, s0, gd in padded
                                   if cc == c)
                    assert len(spans) > 1, (i, c)  # really chunked
                    assert spans[0][0] == 0 and spans[-1][1] == S, (i, c)
                    assert all(a[1] == b[0] for a, b in
                               zip(spans, spans[1:])), (i, c, spans)
                    assert sum(gd for cc, gd in gathered if cc == c) == S

    @staticmethod
    def _count_gathers(monkeypatch):
        """Record ``(channels, nbytes)`` of every slice buffer
        :func:`fused._gather_slab2d` fills."""
        gathered = []
        gather = fused._gather_slab2d

        def count(xslab, kernel_hw, stride_hw, out):
            gathered.append((xslab.shape[1], out.nbytes))
            gather(xslab, kernel_hw, stride_hw, out)

        monkeypatch.setattr(fused, "_gather_slab2d", count)
        return gathered

    @staticmethod
    def _train_step(net, side):
        data = np.random.default_rng(1)
        x = data.standard_normal((2, net.in_channels, side, side, side))
        y = (data.random((2, 1, side, side, side)) < 0.3).astype(x.dtype)
        net.zero_grad()
        _, grad = SoftDiceLoss().forward(net(x), y)
        net.backward(grad)

    def test_training_step_gathers_counted(self, monkeypatch):
        """One 8^3 training step of the shipped model, ``UNet3D(4, 1,
        4, 3)``, gathers once per 3^3 layer in the forward and once in
        the backward, which walks only dy (x, for the first layer): 20
        slice buffers of 4,386,816 bytes.  A backward that also walked
        x for dw gathered 29, of 6,414,336 bytes."""
        net = UNet3D(4, 1, 4, 3, rng=np.random.default_rng(0))
        gathered = self._count_gathers(monkeypatch)
        with use_backend("fused"):
            self._train_step(net, 8)
        assert len(gathered) == 20
        assert sum(nbytes for _, nbytes in gathered) == 4_386_816

    def test_first_layer_backward_gathers_only_x(self, monkeypatch):
        """The network's first layer needs no dx: its backward walks
        the padded input x once for dw and never gathers dy."""
        net = UNet3D(2, 1, 3, 2, rng=np.random.default_rng(0))
        gathered = self._count_gathers(monkeypatch)
        calls = []
        backward = fused.FusedBackend.conv3d_backward

        def record(self, dy, x, w, stride, pad, with_bias, need_dx=True):
            start = len(gathered)
            out = backward(self, dy, x, w, stride, pad, with_bias,
                           need_dx=need_dx)
            if w.shape[2:] == (3, 3, 3):
                calls.append((need_dx, x.shape[1], dy.shape[1],
                              gathered[start:]))
            return out

        monkeypatch.setattr(fused.FusedBackend, "conv3d_backward", record)
        with use_backend("fused"):
            self._train_step(net, 8)
        first = [c for c in calls if not c[0]]
        assert len(first) == 1 and len(calls) == 6
        _, cin, cout, walks = first[0]
        assert (cin, cout) == (2, 3)
        assert [c for c, _ in walks] == [cin]  # x once, no dy
        for need_dx, _, cout, walks in calls:
            if need_dx:
                assert [c for c, _ in walks] == [cout]  # dy once, no x

    def test_no_full_padded_volume_checked_out(self, monkeypatch):
        """With the padded volume above the chunk budget, no pass checks
        a padded copy of its whole input out of the arena."""
        monkeypatch.setattr(fused, "CHUNK_BYTES", 8 * 1024)
        ws = workspace()
        shapes = []
        acquire = ws.acquire

        def record(shape, dtype=np.float64):
            shapes.append(tuple(shape))
            return acquire(shape, dtype)

        monkeypatch.setattr(ws, "acquire", record)
        x_padded, dy_padded = (2, 2, 10, 9, 8), (2, 3, 10, 9, 8)
        assert np.prod(x_padded) * 8 > fused.CHUNK_BYTES
        outputs = _fused_outputs(2, 2, 3, (8, 7, 6), 1, np.float64)
        assert len(outputs) == len(OUTPUT_LABELS)
        assert x_padded not in shapes and dy_padded not in shapes
        slabs = [s for s in shapes if len(s) == 5 and s[3:] == (9, 8)]
        assert slabs and all(s[2] < 10 for s in slabs)

    @pytest.mark.usefixtures("small_chunks")
    def test_workspace_balanced_after_chunked_run(self):
        # delta, not absolute: earlier tests' layers may still hold a
        # live forward ctx (released lazily on their next forward)
        before = workspace().stats()["in_use_bytes"]
        self._run("fused")
        assert workspace().stats()["in_use_bytes"] == before

    @pytest.mark.usefixtures("small_chunks")
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
                net = UNet3D(2, 1, base_filters=2, depth=2,
                             use_batchnorm=False,
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
