"""WorkspaceArena semantics: reuse, bounding, and no-aliasing."""

import gc
import importlib
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.nn import Adam, SoftDiceLoss, UNet3D, use_backend
from repro.nn.functional import conv3d_backward, conv3d_forward
from repro.nn.kernels import WorkspaceArena, set_workspace_limit, workspace
from repro.nn.layers.fused_block import FusedConvBNReLU3D


class TestArenaBasics:
    def test_acquire_release_recycles_buffer(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((16, 16))
        ws.release(a)
        b = ws.acquire((16, 16))
        assert b is a
        assert ws.stats()["hits"] == 1 and ws.stats()["misses"] == 1

    def test_distinct_keys_get_distinct_buffers(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((8, 8), np.float64)
        ws.release(a)
        b = ws.acquire((8, 8), np.float32)
        assert b is not a and b.dtype == np.float32

    def test_concurrent_checkouts_never_alias(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((32,))
        b = ws.acquire((32,))
        assert a is not b
        assert not np.shares_memory(a, b)
        ws.release(a)
        ws.release(b)

    def test_in_use_and_free_accounting(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((128,))
        assert ws.in_use_bytes == a.nbytes and ws.free_bytes == 0
        ws.release(a)
        assert ws.in_use_bytes == 0 and ws.free_bytes == a.nbytes
        assert ws.total_bytes == a.nbytes

    def test_release_of_foreign_array_and_none_ignored(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        ws.release(np.zeros(4))
        ws.release(None)
        assert ws.free_bytes == 0 and ws.in_use_bytes == 0

    def test_stale_checkout_id_never_poisons_pool(self):
        """A checkout leaked without release leaves a stale ``id`` entry;
        a foreign array recycled onto the same address must not be
        retained (acquire would then hand out foreign memory)."""
        ws = WorkspaceArena(max_bytes=1 << 20)
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
        ws = WorkspaceArena(max_bytes=1 << 20)
        ref = weakref.ref(ws.acquire((32, 32)).base)
        gc.collect()
        assert ref() is None

    def test_leaked_checkout_stops_counting_as_in_use(self):
        """A checkout dropped without a release is freed, so neither
        ``stats()``/``total_bytes`` nor a later miss may still count it
        (the ``kernel_workspace_bytes`` gauge would overstate forever)."""
        ws = WorkspaceArena(max_bytes=1 << 20)
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
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((8, 8))
        ws.release(a.reshape(-1))
        assert ws.free_bytes == 0 and ws.in_use_bytes == a.nbytes
        ws.release(a)
        assert ws.free_bytes == a.nbytes and ws.in_use_bytes == 0

    def test_double_release_is_harmless(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a = ws.acquire((8,))
        ws.release(a)
        ws.release(a)  # second release: no longer checked out -> ignored
        assert ws.free_bytes == a.nbytes

    def test_clear_drops_retained_buffers(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        ws.release(ws.acquire((64,)))
        ws.clear()
        assert ws.free_bytes == 0
        assert ws.acquire((64,)) is not None  # miss, fresh allocation
        assert ws.misses == 2


class TestSizeKeyedReuse:
    def test_smaller_request_of_another_dtype_reuses_a_larger_block(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        big = ws.acquire((64, 64), np.float64)
        ws.release(big)
        small = ws.acquire((10, 30), np.float32)
        assert ws.misses == 1 and ws.hits == 1
        assert small.shape == (10, 30) and small.dtype == np.float32
        assert np.shares_memory(small, big)
        other = ws.acquire((10, 30), np.float32)  # overlapping checkout
        assert not np.shares_memory(small, other)

    def test_best_fit_picks_the_smallest_block_that_fits(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        blocks = [ws.acquire((n,)) for n in (400, 100, 200)]
        for b in blocks:
            ws.release(b)
        assert np.shares_memory(ws.acquire((150,)), blocks[2])

    def test_miss_replaces_the_largest_too_small_block(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a, b = ws.acquire((100,)), ws.acquire((200,))
        ws.release(a)
        ws.release(b)
        c = ws.acquire((300,))
        assert ws.misses == 3 and ws.evictions == 1
        assert ws.free_bytes == a.nbytes  # the 200-float block was dropped
        ws.release(c)
        assert ws.total_bytes == a.nbytes + c.nbytes

    def test_peak_in_use_bytes_is_the_checkout_high_water_mark(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        a, b = ws.acquire((100,)), ws.acquire((50,))
        ws.release(a)
        ws.release(b)
        ws.release(ws.acquire((10,)))
        assert ws.stats()["peak_in_use_bytes"] == 150 * 8
        assert ws.stats()["in_use_bytes"] == 0

    def test_search_pool_cycle_holds_about_its_peak_live_set(
            self, monkeypatch):
        """A ``search_pool``-shaped cycle (UNet3D ``base_filters=4``,
        ``depth=3``, float32: one train step, then ``predict`` at batch
        1 and 2) on a fresh process-wide arena: once warm, further
        cycles neither miss nor grow it, and it holds little beyond the
        most it ever had checked out at once."""
        arena = WorkspaceArena()
        monkeypatch.setattr(
            importlib.import_module("repro.nn.kernels.workspace"),
            "_WORKSPACE", arena)
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
    """Counted, not timed: what a training step holds in the arena.

    A fresh arena that retains nothing (``max_bytes=0``) gives every
    checkout a block of exactly its own size, so ``in_use_bytes`` is an
    exact count of the bytes a forward leaves for its backward."""

    @pytest.fixture
    def arena(self, monkeypatch):
        arena = WorkspaceArena(max_bytes=0)
        monkeypatch.setattr(
            importlib.import_module("repro.nn.kernels.workspace"),
            "_WORKSPACE", arena)
        return arena

    @staticmethod
    def _model_and_input():
        model = UNet3D(4, 1, base_filters=4, depth=3,
                       rng=np.random.default_rng(1), dtype=np.float32)
        x = (np.random.default_rng(0).normal(size=(1, 4, 16, 16, 16))
             .astype(np.float32))
        return model, x

    @staticmethod
    def _y_conv_bytes(model):
        blocks = [m for _, m in model.named_modules()
                  if isinstance(m, FusedConvBNReLU3D)]
        assert blocks and all(b._route == "fused" for b in blocks)
        return sum(b._ctx["y_conv"].nbytes for b in blocks)

    def test_forward_keeps_only_the_fused_conv_outputs(self, arena):
        """After a training forward the arena holds exactly the fused
        blocks' ``y_conv`` volumes -- no slice buffer outlives its
        forward -- and the backward hands every byte back."""
        model, x = self._model_and_input()
        before = arena.stats()["in_use_bytes"]
        pred = model(x)
        held = arena.stats()["in_use_bytes"] - before
        assert held == self._y_conv_bytes(model)
        model.backward(np.ones_like(pred))
        assert arena.stats()["in_use_bytes"] == before

    def test_forward_without_backward_reclaims_the_stale_ctx(self, arena):
        """A second training forward with no backward in between
        releases the first one's ``y_conv`` before keeping its own."""
        model, x = self._model_and_input()
        model(x)
        after_first = arena.stats()["in_use_bytes"]
        model(x)
        assert arena.stats()["in_use_bytes"] == after_first
        assert after_first == self._y_conv_bytes(model)


class TestArenaThreads:
    def test_concurrent_checkouts_stay_disjoint_and_balanced(self):
        """More threads than cores, a short switch interval: every live
        checkout keeps the values its owner wrote, and the byte
        accounting balances once all are released."""
        ws = WorkspaceArena(max_bytes=1 << 20)
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


class TestArenaBounds:
    def test_eviction_beyond_budget_is_fifo(self):
        ws = WorkspaceArena(max_bytes=3 * 800)  # room for 3 x 100-float64
        bufs = [ws.acquire((100,)) for _ in range(4)]
        for b in bufs:
            ws.release(b)
        # oldest released buffer was evicted to stay under budget
        assert ws.free_bytes == 3 * 800
        assert ws.evictions == 1
        assert ws.acquire((100,)) is not bufs[0]

    def test_oversized_buffer_never_retained(self):
        ws = WorkspaceArena(max_bytes=100)
        a = ws.acquire((1000,))
        ws.release(a)
        assert ws.free_bytes == 0 and ws.evictions == 1

    def test_set_limit_evicts_oldest_first(self):
        ws = WorkspaceArena(max_bytes=1 << 20)
        bufs = [ws.acquire((100,)) for _ in range(3)]
        for b in bufs:
            ws.release(b)
        assert ws.set_limit(1600) == 1 << 20
        assert ws.max_bytes == 1600 and ws.evictions == 1
        assert not any(np.shares_memory(bufs[0], r) for r in ws.retained())

    def test_set_workspace_limit_shrinks_pool(self):
        ws = workspace()
        ws.clear()
        previous = set_workspace_limit(1 << 30)
        try:
            for _ in range(4):
                ws.release(ws.acquire((100,)))
                # sequential checkout: same buffer recycled, pool holds 1
            assert ws.free_bytes == 800
            set_workspace_limit(0)
            assert ws.free_bytes == 0
        finally:
            set_workspace_limit(previous)


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
