"""WorkspaceArena semantics: reuse, checkout lifetime, and no-aliasing."""

import gc
import importlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.nn import Adam, SoftDiceLoss, UNet3D, use_backend
from repro.nn import functional as F
from repro.nn.functional import conv3d_backward, conv3d_forward
from repro.nn.kernels import WorkspaceArena, workspace
from repro.nn.layers.fused_block import FusedConvBNReLU3D


@pytest.fixture
def arena(monkeypatch):
    """A fresh arena installed as the process-wide one."""
    arena = WorkspaceArena()
    monkeypatch.setattr(
        importlib.import_module("repro.nn.kernels.workspace"),
        "_WORKSPACE", arena)
    return arena


class TestArenaBasics:
    def test_acquire_release_recycles_buffer(self):
        ws = WorkspaceArena()
        a = ws.acquire((16, 16))
        ws.release(a)
        b = ws.acquire((16, 16))
        assert b is a
        assert ws.stats()["hits"] == 1 and ws.stats()["misses"] == 1

    def test_distinct_keys_get_distinct_buffers(self):
        ws = WorkspaceArena()
        a = ws.acquire((8, 8), np.float64)
        ws.release(a)
        b = ws.acquire((8, 8), np.float32)
        assert b is not a and b.dtype == np.float32

    def test_concurrent_checkouts_never_alias(self):
        ws = WorkspaceArena()
        a = ws.acquire((32,))
        b = ws.acquire((32,))
        assert a is not b
        assert not np.shares_memory(a, b)
        ws.release(a)
        ws.release(b)

    def test_in_use_and_free_accounting(self):
        ws = WorkspaceArena()
        a = ws.acquire((128,))
        assert ws.in_use_bytes == a.nbytes and ws.free_bytes == 0
        ws.release(a)
        assert ws.in_use_bytes == 0 and ws.free_bytes == a.nbytes
        assert ws.total_bytes == a.nbytes

    def test_release_of_foreign_array_and_none_ignored(self):
        ws = WorkspaceArena()
        ws.release(np.zeros(4))
        ws.release(None)
        assert ws.free_bytes == 0 and ws.in_use_bytes == 0

    def test_stale_checkout_id_never_poisons_pool(self):
        """A checkout leaked without release leaves a stale ``id`` entry;
        a foreign array recycled onto the same address must not be
        retained (acquire would then hand out foreign memory)."""
        ws = WorkspaceArena()
        leaked = ws.acquire((16, 4))
        stale = ws._out.pop(id(leaked.base))
        del leaked  # collected without a release
        owner = np.zeros(3)
        ws._out[id(owner)] = stale  # simulate the id collision
        ws.release(owner[1:])
        assert id(owner) not in ws._out
        assert ws.free_bytes == 0  # the foreign array was not retained
        assert ws.in_use_bytes == 0  # nor is the leaked block still counted
        assert ws.acquire((16, 4)).shape == (16, 4)

    def test_leaked_checkout_is_not_pinned(self):
        ws = WorkspaceArena()
        ref = weakref.ref(ws.acquire((32, 32)).base)
        gc.collect()
        assert ref() is None

    def test_leaked_checkout_stops_counting_as_in_use(self):
        """A checkout dropped without a release is freed, so neither
        ``stats()``/``total_bytes`` nor a later miss may still count it
        (the ``kernel_workspace_bytes`` gauge would overstate forever)."""
        ws = WorkspaceArena()
        leaked = ws.acquire((32, 32))
        del leaked
        gc.collect()
        assert ws.stats()["in_use_bytes"] == 0
        assert ws.total_bytes == 0
        leaked = ws.acquire((32, 32))
        del leaked
        gc.collect()
        live = ws.acquire((64, 64))  # the miss alone sweeps the leak
        assert ws.misses == 3
        assert ws.in_use_bytes == live.nbytes

    def test_release_of_another_view_of_a_live_checkout_ignored(self):
        ws = WorkspaceArena()
        a = ws.acquire((8, 8))
        ws.release(a.reshape(-1))
        assert ws.free_bytes == 0 and ws.in_use_bytes == a.nbytes
        ws.release(a)
        assert ws.free_bytes == a.nbytes and ws.in_use_bytes == 0

    def test_double_release_is_harmless(self):
        ws = WorkspaceArena()
        a = ws.acquire((8,))
        ws.release(a)
        ws.release(a)  # second release: no longer checked out -> ignored
        assert ws.free_bytes == a.nbytes

    def test_clear_drops_retained_buffers(self):
        ws = WorkspaceArena()
        ws.release(ws.acquire((64,)))
        ws.clear()
        assert ws.free_bytes == 0
        assert ws.acquire((64,)) is not None  # miss, fresh allocation
        assert ws.misses == 2


class TestSizeKeyedReuse:
    def test_smaller_request_of_another_dtype_reuses_a_larger_block(self):
        ws = WorkspaceArena()
        big = ws.acquire((64, 64), np.float64)
        ws.release(big)
        small = ws.acquire((10, 30), np.float32)
        assert ws.misses == 1 and ws.hits == 1
        assert small.shape == (10, 30) and small.dtype == np.float32
        assert np.shares_memory(small, big)
        other = ws.acquire((10, 30), np.float32)  # overlapping checkout
        assert not np.shares_memory(small, other)

    def test_best_fit_picks_the_smallest_block_that_fits(self):
        ws = WorkspaceArena()
        blocks = [ws.acquire((n,)) for n in (400, 100, 200)]
        for b in blocks:
            ws.release(b)
        assert np.shares_memory(ws.acquire((150,)), blocks[2])

    def test_miss_replaces_the_largest_too_small_block(self):
        ws = WorkspaceArena()
        a, b = ws.acquire((100,)), ws.acquire((200,))
        ws.release(a)
        ws.release(b)
        c = ws.acquire((300,))
        assert ws.misses == 3 and ws.evictions == 1
        assert ws.free_bytes == a.nbytes  # the 200-float block was dropped
        ws.release(c)
        assert ws.total_bytes == a.nbytes + c.nbytes

    def test_peak_in_use_bytes_is_the_checkout_high_water_mark(self):
        ws = WorkspaceArena()
        a, b = ws.acquire((100,)), ws.acquire((50,))
        ws.release(a)
        ws.release(b)
        ws.release(ws.acquire((10,)))
        assert ws.stats()["peak_in_use_bytes"] == 150 * 8
        assert ws.stats()["in_use_bytes"] == 0

    def test_search_pool_cycle_holds_about_its_peak_live_set(self, arena):
        """A ``search_pool``-shaped cycle (UNet3D ``base_filters=4``,
        ``depth=3``, float32: one train step, then ``predict`` at batch
        1 and 2) on a fresh process-wide arena: once warm, further
        cycles neither miss nor grow it, and it holds little beyond the
        most it ever had checked out at once."""
        rng = np.random.default_rng(0)
        model = UNet3D(in_channels=4, out_channels=1, base_filters=4,
                       depth=3, rng=np.random.default_rng(1),
                       dtype=np.float32)
        optimizer = Adam(model, lr=1e-3)
        loss = SoftDiceLoss()
        x = rng.normal(size=(2, 4, 16, 16, 16)).astype(np.float32)
        y = (rng.random((1, 1, 16, 16, 16)) > 0.5).astype(np.float32)

        def cycle():
            model.zero_grad()
            _, dpred = loss.forward(model(x[:1]), y)
            model.backward(dpred)
            optimizer.step()
            model.predict(x[:1])
            model.predict(x)

        cycle()  # warm-up: the arena grows its blocks to fit
        misses, total = arena.misses, arena.total_bytes
        for _ in range(3):
            cycle()
        assert arena.misses == misses
        assert arena.total_bytes == total
        assert total <= 1.1 * arena.stats()["peak_in_use_bytes"]


class TestTrainingStepMemory:
    """Counted, not timed: what a training step leaves in the arena."""

    def test_forward_keeps_only_the_fused_conv_outputs(self, arena):
        """A training forward leaves nothing checked out: the fused
        blocks' ``y_conv`` volumes are the layers' own arrays, none of
        them arena memory, and the backward leaves the count as it
        found it."""
        model = UNet3D(4, 1, base_filters=4, depth=3,
                       rng=np.random.default_rng(1), dtype=np.float32)
        x = (np.random.default_rng(0).normal(size=(1, 4, 16, 16, 16))
             .astype(np.float32))
        before = arena.in_use_bytes
        pred = model(x)
        assert arena.in_use_bytes == before
        blocks = [m for _, m in model.named_modules()
                  if isinstance(m, FusedConvBNReLU3D)]
        assert blocks and all(b._route == "fused" for b in blocks)
        pooled = workspace().retained()
        assert pooled  # the forward did use scratch: the check is real
        assert not any(np.shares_memory(b._ctx["y_conv"], buf)
                       for b in blocks for buf in pooled)
        model.backward(np.ones_like(pred))
        assert arena.in_use_bytes == before


class TestArenaThreads:
    def test_concurrent_checkouts_stay_disjoint_and_balanced(self):
        """More threads than cores, a short switch interval: every live
        checkout keeps the values its owner wrote, and the byte
        accounting balances once all are released."""
        ws = WorkspaceArena()
        n_threads, rounds = 6, 200
        corrupted = []

        def work(tag):
            rng = np.random.default_rng(tag)
            for _ in range(rounds):
                held = [ws.acquire((int(rng.integers(1, 64)),), dt)
                        for dt in (np.float64, np.float32)]
                for buf in held:
                    buf.fill(tag)
                for buf in held:
                    if not (buf == tag).all():
                        corrupted.append(tag)
                    ws.release(buf)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not corrupted
        assert ws.hits + ws.misses == n_threads * rounds * 2
        assert ws.in_use_bytes == 0
        assert ws.free_bytes == sum(b.nbytes for b in ws.retained())


class TestNoAliasingThroughKernels:
    def test_conv_outputs_are_not_arena_views(self):
        """Back-to-back convolutions recycle scratch, yet earlier outputs
        must stay intact -- outputs are never views into the arena."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 6, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        b = rng.normal(size=3)
        with use_backend("fused"):
            y1 = conv3d_forward(x, w, b, 1, 1)
            keep = y1.copy()
            for _ in range(3):  # recycle the same scratch keys repeatedly
                conv3d_forward(x, w, b, 1, 1)
                conv3d_backward(np.ones((1, 3, 6, 6, 6)), x, w, 1, 1)
        np.testing.assert_array_equal(y1, keep)
        pooled = workspace().retained()
        assert pooled  # the scratch came back: the check below is real
        assert not any(np.shares_memory(y1, buf) for buf in pooled)

    def test_kernels_leave_no_checked_out_buffers(self):
        ws = workspace()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5, 4))
        w = rng.normal(size=(4, 3, 3, 3, 3))
        with use_backend("fused"):
            before = ws.in_use_bytes
            y = conv3d_forward(x, w, None, 2, 1)
            conv3d_backward(np.ones_like(y), x, w, 2, 1)
            assert ws.in_use_bytes == before

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("entry", [
        "conv_forward", "conv_backward", "fused_train_forward",
        "fused_train_backward", "fused_eval_forward",
        "transposed_forward", "transposed_backward"])
    def test_no_checkout_outlives_a_kernel_call(self, arena, entry, dtype):
        """Every ``functional`` conv entry point hands back all the
        scratch it checked out before it returns, and nothing it returns
        or keeps in ``ctx`` is arena memory."""
        call, ctx = _kernel_call(entry, dtype)
        before = arena.in_use_bytes
        out = call()
        assert arena.in_use_bytes == before
        pooled = arena.retained()
        assert pooled  # the call did use scratch: the check is real
        outs = out if isinstance(out, tuple) else (out,)
        kept = [a for a in (*outs, *ctx.values())
                if isinstance(a, np.ndarray)]
        assert kept
        assert not any(np.shares_memory(a, buf)
                       for a in kept for buf in pooled)


def _kernel_call(entry, dtype):
    """``(call, ctx)`` for one conv entry point on small random inputs;
    the fused backward's training forward runs here, before the call."""
    rng = np.random.default_rng(3)

    def draw(*shape):
        return rng.normal(size=shape).astype(dtype)

    x, w, b = draw(2, 3, 6, 6, 5), draw(4, 3, 3, 3, 3), draw(4)
    dy = draw(2, 4, 6, 6, 5)
    wt, dyt = draw(3, 4, 2, 2, 2), draw(2, 4, 12, 12, 10)
    gamma, beta = 1.0 + draw(4) ** 2, draw(4)
    mean, var = np.zeros(4, dtype), np.ones(4, dtype)
    ctx = {}

    def fused_forward(training):
        return F.conv3d_bn_relu_forward(
            x, w, b, gamma, beta, mean, var, stride=1, pad=1,
            training=training, ctx=ctx if training else None)

    if entry == "fused_train_backward":
        fused_forward(True)
    calls = {
        "conv_forward": lambda: F.conv3d_forward(x, w, b, 1, 1),
        "conv_backward": lambda: F.conv3d_backward(dy, x, w, 1, 1),
        "fused_train_forward": lambda: fused_forward(True),
        "fused_train_backward": lambda: F.conv3d_bn_relu_backward(
            dy, x, w, gamma, stride=1, pad=1, ctx=ctx),
        "fused_eval_forward": lambda: fused_forward(False),
        "transposed_forward": lambda: F.conv_transpose3d_forward(
            x, wt, None, 2),
        "transposed_backward": lambda: F.conv_transpose3d_backward(
            dyt, x, wt, 2),
    }
    return calls[entry], ctx
