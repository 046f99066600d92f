"""Shared-memory dataset handoff: one copy, every worker attaches."""

import multiprocessing as mp
import pickle

import numpy as np
import pytest

from repro.execpool import AttachedArrays, SharedArrayHandle, SharedArrayStore


def _bundle():
    rng = np.random.default_rng(7)
    return {
        "train_images": rng.normal(size=(4, 8, 8, 8, 1)).astype(np.float32),
        "train_masks": (rng.random((4, 8, 8, 8, 1)) > 0.5).astype(np.float32),
        "scalars": np.arange(5, dtype=np.int64),
    }


class TestRoundTrip:
    def test_attach_returns_equal_arrays(self):
        arrays = _bundle()
        with SharedArrayStore(arrays) as store:
            att = store.attach()
            assert set(att.arrays) == set(arrays)
            for k in arrays:
                np.testing.assert_array_equal(att[k], arrays[k])
                assert att[k].dtype == arrays[k].dtype
            att.close()

    def test_offsets_are_cache_aligned(self):
        with SharedArrayStore(_bundle()) as store:
            for _, offset, _, _ in store.handle.entries:
                assert offset % 64 == 0

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            SharedArrayStore({})

    def test_handle_pickles(self):
        with SharedArrayStore(_bundle()) as store:
            handle = pickle.loads(pickle.dumps(store.handle))
            assert isinstance(handle, SharedArrayHandle)
            assert handle == store.handle
            att = handle.attach()
            np.testing.assert_array_equal(att["scalars"],
                                          np.arange(5, dtype=np.int64))
            att.close()


class TestSharing:
    def test_attachments_share_pages(self):
        """Two attachments map the same segment: a write through one is
        visible through the other without any copy or message."""
        with SharedArrayStore(_bundle()) as store:
            a = store.attach()
            b = store.attach()
            a["scalars"][0] = 123456
            assert b["scalars"][0] == 123456
            a.close()
            b.close()

    def test_child_process_attaches_zero_copy(self):
        """A forked child attaches via the pickled handle and sees the
        parent's bytes; its write comes back through the parent's
        mapping -- shared pages, not a pickled copy."""
        arrays = _bundle()
        with SharedArrayStore(arrays) as store:

            def child(handle, out_q):
                att = handle.attach()
                out_q.put(float(att["train_images"].sum()))
                att["scalars"][4] = 777
                att.close()

            ctx = mp.get_context("fork")
            q = ctx.Queue()
            p = ctx.Process(target=child, args=(store.handle, q))
            p.start()
            child_sum = q.get(timeout=30)
            p.join(timeout=30)
            assert p.exitcode == 0
            assert child_sum == pytest.approx(
                float(arrays["train_images"].sum()))
            att = store.attach()
            assert att["scalars"][4] == 777
            att.close()

    def test_attach_does_not_poison_resource_tracker(self):
        """Attaching must not register the segment with the resource
        tracker (bpo-38119): the publisher owns it, and a second
        registration makes the tracker unlink or double-unregister it."""
        from multiprocessing import resource_tracker

        with SharedArrayStore({"x": np.zeros(4)}) as store:
            seen = []
            orig = resource_tracker.register
            resource_tracker.register = lambda name, rtype: seen.append(
                (name, rtype))
            try:
                att = store.attach()
                att.close()
            finally:
                resource_tracker.register = orig
            assert all(rtype != "shared_memory" for _, rtype in seen)


class TestLifetime:
    def test_pipeline_keeps_attachment_alive(self):
        """Regression: the views record the mapping's raw pointer, so
        whoever holds the arrays must hold the AttachedArrays too --
        dropping it lets SharedMemory.__del__ unmap under the views."""
        import gc

        from repro.core import ExperimentSettings, MISPipeline

        rng = np.random.default_rng(0)
        arrays = {}
        for split in ("train", "val", "test"):
            arrays[f"{split}_images"] = rng.normal(
                size=(2, 8, 8, 8, 1)).astype(np.float32)
            arrays[f"{split}_masks"] = np.zeros(
                (2, 8, 8, 8, 1), dtype=np.float32)
        with SharedArrayStore(arrays) as store:
            settings = ExperimentSettings(num_subjects=4,
                                          volume_shape=(8, 8, 8))
            pipe = MISPipeline.from_arrays(settings, store.handle.attach())
            assert isinstance(pipe._owner, AttachedArrays)
            gc.collect()  # would free the mapping if the ref were dropped
            batch = next(iter(pipe.dataset("train", batch_size=2)))
            np.testing.assert_array_equal(batch[0][0],
                                          arrays["train_images"][0])
