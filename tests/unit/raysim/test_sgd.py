"""Data-parallel SGD trainer tests -- the machinery behind claim C2."""

import numpy as np
import pytest

from repro.nn import Adam, SGD, SoftDiceLoss, UNet3D
from repro.nn.dtypes import use_compute_dtype
from repro.raysim import DataParallelTrainer, SyncGroup

from ...float32_bounds import sharding_atol

rng = np.random.default_rng(4)


def unet_factory(use_bn=False, seed=0):
    return lambda: UNet3D(1, 1, 2, 2, use_batchnorm=use_bn,
                          rng=np.random.default_rng(seed))


def batch(n=4, seed=2):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 1, 4, 4, 4))
    y = (r.uniform(size=(n, 1, 4, 4, 4)) > 0.8).astype(float)
    return x, y


class TestExactEquivalence:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("replicas", [2, 4])
    def test_gradient_sharding_equals_full_batch(self, replicas, dtype):
        """N-replica training == 1-replica large-batch training, to float
        round-off, when BN is absent (TF MirroredStrategy semantics)."""
        x, y = batch(4)
        with use_compute_dtype(dtype):
            t1 = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                     lambda m: Adam(m, lr=1e-3), 1)
            tn = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                     lambda m: Adam(m, lr=1e-3), replicas)
        try:
            for _ in range(4):
                o1 = t1.train_step(x, y)
                on = tn.train_step(x, y)
                assert o1["loss"] == pytest.approx(
                    on["loss"], abs=sharding_atol(dtype, 1e-12, 4, o1["loss"]))
            p1 = t1.model.get_flat_params()
            np.testing.assert_allclose(
                p1, tn.model.get_flat_params(),
                atol=sharding_atol(dtype, 1e-10, 4, p1),
            )
        finally:
            t1.shutdown()
            tn.shutdown()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sync_batchnorm_restores_equivalence(self, dtype):
        x, y = batch(4)
        with use_compute_dtype(dtype):
            t1 = DataParallelTrainer(unet_factory(use_bn=True),
                                     SoftDiceLoss(),
                                     lambda m: SGD(m, lr=1e-2), 1)
            t2 = DataParallelTrainer(unet_factory(use_bn=True),
                                     SoftDiceLoss(),
                                     lambda m: SGD(m, lr=1e-2), 2,
                                     sync_batchnorm=True)
        try:
            for _ in range(3):
                o1 = t1.train_step(x, y)
                o2 = t2.train_step(x, y)
                assert o1["loss"] == pytest.approx(
                    o2["loss"], abs=sharding_atol(dtype, 1e-10, 3, o1["loss"]))
            p1 = t1.model.get_flat_params()
            np.testing.assert_allclose(
                p1, t2.model.get_flat_params(),
                atol=sharding_atol(dtype, 1e-8, 3, p1),
            )
        finally:
            t1.shutdown()
            t2.shutdown()

    def test_per_replica_bn_differs_from_full_batch(self):
        """Without sync BN the statistics are per-shard, so the runs
        diverge -- documenting the MirroredStrategy caveat."""
        x, y = batch(4)
        t1 = DataParallelTrainer(unet_factory(use_bn=True), SoftDiceLoss(),
                                 lambda m: SGD(m, lr=1e-2), 1)
        t2 = DataParallelTrainer(unet_factory(use_bn=True), SoftDiceLoss(),
                                 lambda m: SGD(m, lr=1e-2), 2,
                                 sync_batchnorm=False)
        try:
            for _ in range(2):
                t1.train_step(x, y)
                t2.train_step(x, y)
            diff = np.abs(
                t1.model.get_flat_params() - t2.model.get_flat_params()
            ).max()
            assert diff > 1e-9
        finally:
            t1.shutdown()
            t2.shutdown()


class TestInvariants:
    def test_replicas_stay_in_lockstep(self):
        x, y = batch(6)
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: Adam(m, lr=1e-3), 3)
        try:
            for _ in range(3):
                t.train_step(x, y)
                assert t.weights_in_sync(atol=1e-12)
        finally:
            t.shutdown()

    def test_loss_decreases(self):
        x, y = batch(4)
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: Adam(m, lr=1e-2), 2)
        try:
            first = t.train_step(x, y)["loss"]
            for _ in range(20):
                last = t.train_step(x, y)["loss"]
            assert last < first
        finally:
            t.shutdown()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_uneven_shards_weighted_correctly(self, dtype):
        """Batch 5 over 2 replicas (3+2) must still equal full batch."""
        x, y = batch(5)
        with use_compute_dtype(dtype):
            t1 = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                     lambda m: SGD(m, lr=1e-2), 1)
            t2 = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                     lambda m: SGD(m, lr=1e-2), 2)
        try:
            o1, o2 = t1.train_step(x, y), t2.train_step(x, y)
            assert o1["loss"] == pytest.approx(
                o2["loss"], abs=sharding_atol(dtype, 1e-12, 1, o1["loss"]))
            p1 = t1.model.get_flat_params()
            np.testing.assert_allclose(
                p1, t2.model.get_flat_params(),
                atol=sharding_atol(dtype, 1e-12, 1, p1),
            )
        finally:
            t1.shutdown()
            t2.shutdown()

    def test_batch_smaller_than_replicas_rejected(self):
        x, y = batch(2)
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 3)
        try:
            with pytest.raises(ValueError, match="sharded"):
                t.train_step(x, y)
        finally:
            t.shutdown()

    def test_mismatched_xy_rejected(self):
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 1)
        with pytest.raises(ValueError):
            t.train_step(np.zeros((2, 1, 4, 4, 4)), np.zeros((3, 1, 4, 4, 4)))

    def test_bad_replica_count(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 0)


class TestSyncGroup:
    def test_deterministic_sum(self):
        import threading

        group = SyncGroup(3)
        results = [None] * 3

        def worker(i):
            results[i] = group.reduce(i, np.array([float(i)]), float(i))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in results:
            np.testing.assert_allclose(r[0], [3.0])
            assert r[1] == 3.0


def _fork_and_collect(n, target):
    """Run ``target(index, conn)`` in ``n`` forked processes; returns
    what each sent back, in index order."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
    procs = [ctx.Process(target=target, args=(i, pipes[i][1]))
             for i in range(n)]
    for p in procs:
        p.start()
    try:
        return [recv.recv() for recv, _ in pipes]
    finally:
        for p in procs:
            p.join(timeout=10)


class TestSyncGroupAcrossProcesses:
    def test_fixed_order_sums_in_forked_processes(self):
        group = SyncGroup(3)
        # 1e16 + 1 rounds back to 1e16: only the replica order 0, 1, 2
        # yields exactly 0.0 for the scalar
        scalars = [1e16, 1.0, -1e16]

        def replica(i, conn):
            arr, scalar = group.reduce(i, np.array([float(i), 10.0 * i]),
                                       scalars[i])
            conn.send((arr, scalar))

        try:
            results = _fork_and_collect(3, replica)
        finally:
            group.close()
        for arr, scalar in results:
            np.testing.assert_array_equal(arr, [3.0, 30.0])
            assert type(scalar) is float and scalar == 0.0


def _replica_children():
    import multiprocessing

    return [p for p in multiprocessing.active_children()
            if p.name.startswith("dp-replica-")]


class TestReplicaProcesses:
    def test_killed_replica_fails_the_next_step(self):
        import os
        import signal
        import time

        x, y = batch(4)
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 2)
        try:
            t.train_step(x, y)
            (victim,) = _replica_children()
            os.kill(victim.pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="replica 1"):
                t.train_step(x, y)
            assert time.monotonic() - t0 < 30.0
        finally:
            t.shutdown()
        assert _replica_children() == []

    def test_shutdown_is_idempotent_and_unlinks_shared_memory(
            self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.raysim import sgd

        segments = []

        class RecordingStore(sgd.SharedArrayStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                segments.append(self.handle.shm_name)

        monkeypatch.setattr(sgd, "SharedArrayStore", RecordingStore)
        x, y = batch(4)
        t = DataParallelTrainer(unet_factory(use_bn=True), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 2,
                                sync_batchnorm=True)
        t.train_step(x, y)
        assert len(segments) == 2   # the sync-BN slots and the data plane
        t.shutdown()
        t.shutdown()
        assert _replica_children() == []
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_replica_failure_breaks_the_sync_batchnorm_barrier(
            self, monkeypatch):
        """A replica that fails before its first reduce must not leave
        replica 0 waiting in the barrier forever."""
        import os

        from repro.raysim import sgd

        driver = os.getpid()
        shard_grads = sgd._shard_grads

        def fail_in_replica(*args):
            if os.getpid() != driver:
                raise MemoryError("replica out of memory")
            return shard_grads(*args)

        monkeypatch.setattr(sgd, "_shard_grads", fail_in_replica)
        x, y = batch(4)
        t = DataParallelTrainer(unet_factory(use_bn=True), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 2,
                                sync_batchnorm=True)
        try:
            with pytest.raises(RuntimeError):
                t.train_step(x, y)
        finally:
            t.shutdown()
        assert _replica_children() == []

    def test_daemonic_process_rejects_replica_processes(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def build():
            try:
                DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                    lambda m: SGD(m, lr=1e-2), 2)
                send.send(None)
            except BaseException as exc:
                send.send((type(exc).__name__, str(exc)))

        proc = ctx.Process(target=build, daemon=True)
        proc.start()
        kind, message = recv.recv()
        proc.join(timeout=10)
        assert kind == "ValueError"
        assert "daemonic" in message

    def test_replica_kernel_seconds_reach_the_driver_counter(self,
                                                             monkeypatch):
        from repro.raysim import sgd
        from repro.telemetry import TelemetryHub

        monkeypatch.setattr(sgd, "consume_kernel_seconds",
                            lambda: {("fake", "op"): 1.0})
        hub = TelemetryHub()
        x, y = batch(4)
        t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                lambda m: SGD(m, lr=1e-2), 2, telemetry=hub)
        try:
            t.train_step(x, y)
        finally:
            t.shutdown()
        counter = hub.metrics.get("kernel_seconds_total")
        assert counter.labels(backend="fake", op="op").value == 2.0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_load_checkpoint_reaches_every_replica(self, tmp_path, dtype):
        from repro.core import save_checkpoint

        x, y = batch(4)
        with use_compute_dtype(dtype):
            src = DataParallelTrainer(unet_factory(seed=1), SoftDiceLoss(),
                                      lambda m: Adam(m, lr=1e-2), 1)
            t = DataParallelTrainer(unet_factory(), SoftDiceLoss(),
                                    lambda m: Adam(m, lr=1e-2), 2)
        try:
            src.train_step(x, y)
            path = save_checkpoint(tmp_path / "ckpt", src.model,
                                   src.optimizer, epoch=3)
            assert t.load_checkpoint(path)["epoch"] == 3
            assert t.weights_in_sync()
            for _ in range(2):
                src.train_step(x, y)
                t.train_step(x, y)
                assert t.weights_in_sync(atol=1e-12)
            p_src = src.model.get_flat_params()
            np.testing.assert_allclose(t.model.get_flat_params(), p_src,
                                       atol=sharding_atol(dtype, 1e-10, 2,
                                                          p_src))
        finally:
            t.shutdown()
