"""WorkspaceArena semantics: reuse, bounding, and no-aliasing."""

import numpy as np

from repro.nn import use_backend
from repro.nn.functional import conv3d_backward, conv3d_forward
from repro.nn.kernels import WorkspaceArena, set_workspace_limit, workspace


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
        a foreign array recycled onto the same address must not be filed
        under the old key (acquire would then return the wrong shape)."""
        ws = WorkspaceArena(max_bytes=1 << 20)
        key = ws._key((16, 4), np.float64)
        foreign = np.zeros(3)
        ws._out[id(foreign)] = key  # simulate the id collision
        ws.release(foreign)
        assert id(foreign) not in ws._out
        assert ws.free_bytes == 0  # the foreign array was not retained
        assert ws.acquire((16, 4)).shape == (16, 4)

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
        assert y1.base is None or not any(
            np.shares_memory(y1, buf)
            for bufs in workspace()._free.values() for buf in bufs
        )

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
