"""Serving integration: bit-identity, deadline flush, fail-over, scale.

Everything runs a real 2-process-deep stack -- checkpoint file, forked
replica workers, the shared task queue -- at smoke scale (tiny U-Net,
8^3 volumes) so the suite stays seconds-fast on one core.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager
from repro.core.inference import (
    full_volume_inference,
    sliding_window_inference,
)
from repro.nn import UNet3D
from repro.serve import AutoscalerConfig, ModelServer, ServeConfig

MODEL_KWARGS = dict(in_channels=1, out_channels=1, base_filters=2,
                    depth=2, use_batchnorm=False)


def make_model(seed: int = 7) -> UNet3D:
    return UNet3D(rng=np.random.default_rng(seed), **MODEL_KWARGS)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A best-trial checkpoint through the CheckpointManager round-trip
    (bit-exact restore is pinned by the checkpoint unit tests)."""
    mgr = CheckpointManager(tmp_path_factory.mktemp("serve_ckpt"))
    mgr.save(make_model(), epoch=3, val_dice=0.9)
    return str(mgr.best_path)


def volumes(n, shape=(1, 8, 8, 8), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(n)]


def serve_config(checkpoint, **kw):
    base = dict(checkpoint=checkpoint, model_builder=UNet3D,
                model_kwargs=MODEL_KWARGS, replicas=1, max_batch=4,
                max_delay_ms=5.0, heartbeat_s=0.2)
    base.update(kw)
    return ServeConfig(**base)


class TestBitIdentity:
    def test_batched_serving_matches_offline_full_volume(self, checkpoint):
        """A prediction served in a micro-batch is bit-identical to a
        solo offline full_volume_inference call on the same volume --
        batching amortises dispatch, never changes arithmetic."""
        vols = volumes(6)
        with ModelServer(serve_config(checkpoint, replicas=2)) as server:
            futs = [server.submit(v) for v in vols]
            server.drain(timeout_s=60)
            responses = [f.result() for f in futs]
        # the burst really was coalesced (full batches of max_batch=4)
        assert max(r.batch_size for r in responses) == 4
        assert {r.strategy for r in responses} == {"full_volume"}
        reference = full_volume_inference(
            make_model(), np.stack(vols)).prediction
        for i, r in enumerate(responses):
            assert r.prediction.shape == vols[i].shape
            assert np.array_equal(reference[i], r.prediction)

    def test_large_volume_routes_to_sliding_window(self, checkpoint):
        cfg = serve_config(checkpoint, full_volume_max_voxels=4 ** 3,
                           patch_shape=(4, 4, 4), overlap=0.5,
                           max_delay_ms=0.0)
        (vol,) = volumes(1)
        with ModelServer(cfg) as server:
            assert server.route(vol) == "sliding_window"
            fut = server.submit(vol)
            server.drain(timeout_s=60)
            response = fut.result()
        assert response.strategy == "sliding_window"
        reference = sliding_window_inference(
            make_model(), vol[None], patch_shape=(4, 4, 4),
            overlap=0.5).prediction
        assert np.array_equal(reference[0], response.prediction)


class TestKernelAttribution:
    def test_server_accumulates_per_backend_kernel_seconds(self, checkpoint):
        """Replicas drain the kernel-seconds ledger every batch and the
        attribution rides back to the server's counter."""
        vols = volumes(4)
        with ModelServer(serve_config(checkpoint)) as server:
            futs = [server.submit(v) for v in vols]
            server.drain(timeout_s=60)
            for f in futs:
                f.result()
            ledger = server.kernel_seconds()
        assert ledger, "no kernel attribution reached the server"
        assert all("/" in key for key in ledger)  # "backend/op" keys
        backends = {key.split("/", 1)[0] for key in ledger}
        assert backends == {"fused"}
        assert all(seconds >= 0 for seconds in ledger.values())
        assert any(seconds > 0 for seconds in ledger.values())


class TestMicroBatching:
    def test_idle_replica_releases_partial_batch_at_once(self, checkpoint):
        """Work-conserving batching: two requests against max_batch=8
        never fill the batch, but the replica is idle, so the partial
        batch leaves on the first step instead of at the deadline."""
        cfg = serve_config(checkpoint, max_batch=8, max_delay_ms=10_000.0)
        with ModelServer(cfg) as server:
            t0 = time.monotonic()
            futs = [server.submit(v) for v in volumes(2)]
            server.step()
            assert server.batcher.depth() == 0
            server.drain(timeout_s=60)
            elapsed = time.monotonic() - t0
            responses = [f.result() for f in futs]
        assert [r.batch_size for r in responses] == [2, 2]
        assert elapsed < 5.0  # far inside the 10 s deadline
        assert all(r.queue_wait_s < 5.0 for r in responses)

    def test_deadline_holds_partial_batch_while_replicas_busy(
            self, checkpoint):
        """With the only replica busy, two requests against max_batch=8
        are held for the max_delay_ms coalescing window and then leave
        as one batch."""
        cfg = serve_config(checkpoint, max_batch=8, max_delay_ms=40.0,
                           full_volume_max_voxels=80 ** 3)
        with ModelServer(cfg) as server:
            (slow,) = volumes(1, shape=SLOW_SHAPE)
            busy = server.submit(slow)
            server.step()                 # the idle replica takes it
            assert server.batcher.depth() == 0
            t0 = time.monotonic()
            futs = [server.submit(v) for v in volumes(2)]
            server.step()
            # the replica is busy: nothing leaves before the deadline
            assert server.batcher.depth() == 2
            server.drain(timeout_s=60)
            elapsed = time.monotonic() - t0
            responses = [f.result() for f in futs]
            busy.result()
        assert [r.batch_size for r in responses] == [2, 2]
        assert elapsed >= 0.040  # held for the coalescing window
        # released at the deadline (float slack), not when the replica
        # freed up
        assert all(r.queue_wait_s >= 0.039 for r in responses)

    def test_immediate_dispatch_when_batch_fills(self, checkpoint):
        cfg = serve_config(checkpoint, max_batch=2, max_delay_ms=10_000.0)
        with ModelServer(cfg) as server:
            futs = [server.submit(v) for v in volumes(2)]
            server.step()
            assert server.batcher.depth() == 0  # no deadline wait
            server.drain(timeout_s=60)
            assert [f.result().batch_size for f in futs] == [2, 2]


# A deliberately slow request mix for the kill tests and the busy
# replica above: one full-volume predict of an 80^3 volume takes
# ~0.5 s with MODEL_KWARGS on a 2-vCPU x86 host, so the window between a 2-volume batch's "started" message
# and its completion is about a second wide -- killing the replica
# inside it is not a race.  These tests pin the whole-request task
# retry path; chunk-granular retry has its own kill test below.
SLOW_KW = dict(full_volume_max_voxels=80 ** 3, max_delay_ms=0.0)
SLOW_SHAPE = (1, 80, 80, 80)


def kill_serving_replica(server):
    """Wait for the (single) in-flight batch to start, then SIGKILL the
    replica serving it.  Returns once the process is reaped."""
    deadline = time.monotonic() + 30.0
    while not any(b.worker is not None
                  for b in server._inflight.values()):
        assert time.monotonic() < deadline, "batch never started"
        server.step()
        time.sleep(0.005)
    (batch,) = server._inflight.values()
    victim = server.executor._procs[batch.worker]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10.0)
    assert not victim.is_alive()


class TestFailOver:
    def test_killed_replica_requests_complete_via_retry(self, checkpoint):
        """SIGKILL the replica serving a batch: its in-flight requests
        are resubmitted (not dropped) and answered by a respawned
        replica, bit-identically."""
        cfg = serve_config(checkpoint, replicas=1, max_batch=2,
                           max_retries=2, **SLOW_KW)
        vols = volumes(2, shape=SLOW_SHAPE)
        with ModelServer(cfg) as server:
            futs = [server.submit(v) for v in vols]
            server.step()  # dispatches one full batch of 2
            assert len(server._inflight) == 1
            kill_serving_replica(server)
            server.drain(timeout_s=120)
            responses = [f.result() for f in futs]
            # the pool healed back to its target size
            assert server.executor.worker_count() == 1
        assert all(r.attempt >= 1 for r in responses)
        assert {r.strategy for r in responses} == {"full_volume"}
        reference = full_volume_inference(
            make_model(), np.stack(vols)).prediction
        for i, r in enumerate(responses):
            assert np.array_equal(reference[i], r.prediction)

    def test_retry_budget_exhaustion_fails_requests(self, checkpoint):
        """max_retries=0: a killed replica's requests fail loudly
        instead of hanging the drain."""
        cfg = serve_config(checkpoint, replicas=1, max_batch=2,
                           max_retries=0, **SLOW_KW)
        with ModelServer(cfg) as server:
            futs = [server.submit(v) for v in volumes(2, shape=SLOW_SHAPE)]
            server.step()
            kill_serving_replica(server)
            server.drain(timeout_s=60)
            for fut in futs:
                assert fut.done()
                with pytest.raises(RuntimeError, match="died mid-batch"):
                    fut.result()


class TestScatterGather:
    def test_scattered_request_bit_identical_across_replicas(self, checkpoint):
        """The tentpole contract: a sliding-window request decomposed
        into patch-chunk tasks, balanced across 2 replicas and stitched
        driver-side, is bit-identical to offline inference -- while
        small full-volume requests interleave with the chunk stream."""
        cfg = serve_config(checkpoint, replicas=2, max_batch=2,
                           full_volume_max_voxels=4 ** 3,
                           patch_shape=(4, 4, 4), overlap=0.5,
                           sw_batch_size=2, max_delay_ms=1.0)
        large = volumes(2, shape=(1, 12, 12, 12), seed=3)
        small = volumes(3, shape=(1, 4, 4, 4), seed=4)
        with ModelServer(cfg) as server:
            large_futs = [server.submit(v) for v in large]
            small_futs = [server.submit(v, priority="high")
                          for v in small]
            server.drain(timeout_s=120)
            large_rs = [f.result() for f in large_futs]
            small_rs = [f.result() for f in small_futs]
            # finished requests leave nothing in the scatter registry
            assert not server._chunk_items
        model = make_model()
        for vol, r in zip(large, large_rs):
            assert r.strategy == "sliding_window"
            assert r.chunks > 1           # really was decomposed
            assert r.priority == "normal"
            reference = sliding_window_inference(
                model, vol[None], patch_shape=(4, 4, 4), overlap=0.5,
                batch_size=2).prediction
            assert np.array_equal(reference[0], r.prediction)
        ref_small = full_volume_inference(
            model, np.stack(small)).prediction
        for i, r in enumerate(small_rs):
            assert r.strategy == "full_volume"
            assert r.priority == "high"
            assert np.array_equal(ref_small[i], r.prediction)

    def test_large_request_keeps_one_single_chunk_task_per_replica(
            self, checkpoint):
        """Fair chunk dispatch: a scattered request never has more than
        one task per live replica in flight, and each carries exactly
        one chunk, so every replica keeps a dispatch credit for other
        requests.  A small request submitted while that window is full
        ships before the large request's next chunk."""
        # 12^3 at patch 4, overlap 0.5 -> 125 patches -> 8 chunks of 16
        cfg = serve_config(checkpoint, replicas=2, max_batch=4,
                           full_volume_max_voxels=4 ** 3,
                           patch_shape=(4, 4, 4), overlap=0.5,
                           sw_batch_size=16, max_delay_ms=0.0)
        (large,) = volumes(1, shape=(1, 12, 12, 12), seed=3)
        (small,) = volumes(1, shape=(1, 4, 4, 4), seed=4)
        with ModelServer(cfg) as server:
            shipped = []        # (task, chunk tasks in flight) per submit
            submit = server.executor.submit

            def record(batch_id, task, attempt=0):
                shipped.append((task, sum(
                    b.key.strategy == "sw_chunks"
                    for b in server._inflight.values())))
                submit(batch_id, task, attempt=attempt)

            server.executor.submit = record
            workers = server.executor.worker_count()
            assert workers == 2
            large_fut = server.submit(large, request_id="large")
            (pending,) = server._pending.values()
            assert len(pending.bounds) >= 5
            server.step()
            chunk_tasks = [b for b in server._inflight.values()
                           if b.key.strategy == "sw_chunks"]
            assert 0 < len(chunk_tasks) <= workers
            assert all(len(b.items) == 1 for b in chunk_tasks)
            # nothing capped sits in the batcher reporting itself due
            deadline = server.batcher.next_deadline()
            assert deadline is None or deadline > time.monotonic()
            small_fut = server.submit(small, request_id="small")
            server.drain(timeout_s=120)
            large_r, small_r = large_fut.result(), small_fut.result()
        chunk_tasks = [task for task, _ in shipped
                       if task["strategy"] == "sw_chunks"]
        assert len(chunk_tasks) == len(pending.bounds)  # one chunk each
        assert max(inflight for _, inflight in shipped) <= workers
        order = [task.get("chunk_index", "small") for task, _ in shipped]
        # the small request took a free credit ahead of chunk 2
        assert order.index("small") < order.index(2)
        assert large_r.chunks == len(pending.bounds)
        assert large_r.batch_size == 1
        model = make_model()
        reference = sliding_window_inference(
            model, large[None], patch_shape=(4, 4, 4), overlap=0.5,
            batch_size=16).prediction
        assert np.array_equal(reference[0], large_r.prediction)
        ref_small = full_volume_inference(model, small[None]).prediction
        assert np.array_equal(ref_small[0], small_r.prediction)

    def test_killed_replica_retries_only_its_chunks(self, checkpoint):
        """Chunk-granular fail-over: SIGKILL the replica while a
        scattered request is partially gathered -- chunks that already
        returned are kept, only the dead replica's in-flight chunk
        tasks are resubmitted, and the stitched result stays
        bit-identical to offline inference."""
        # 16^3 at overlap 0.75 -> 2197 patches; 256-patch chunks make 9
        # chunk tasks of ~60 ms each: long enough that SIGKILL lands
        # mid-task (no race), few enough that the drain stays fast
        cfg = serve_config(checkpoint, replicas=1, max_batch=1,
                           max_retries=2, max_delay_ms=0.0,
                           full_volume_max_voxels=4 ** 3,
                           patch_shape=(4, 4, 4), overlap=0.75,
                           sw_batch_size=256)
        (vol,) = volumes(1, shape=(1, 16, 16, 16), seed=5)
        with ModelServer(cfg) as server:
            fut = server.submit(vol)
            (pending,) = server._pending.values()
            n_chunks = len(pending.bounds)
            assert n_chunks > 4
            # drive until some chunks have gathered while others are
            # still in flight -- the partial-progress window
            deadline = time.monotonic() + 60.0
            while not (pending.chunk_results
                       and any(b.worker is not None
                               for b in server._inflight.values())):
                assert time.monotonic() < deadline, "no partial gather"
                server.step()
                time.sleep(0.002)
            gathered_before = set(pending.chunk_results)
            victim_batch = next(b for b in server._inflight.values()
                                if b.worker is not None)
            victim = server.executor._procs[victim_batch.worker]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            server.drain(timeout_s=120)
            response = fut.result()
        # already-gathered chunks were kept, not re-run
        assert gathered_before <= set(range(n_chunks))
        assert response.attempt >= 1
        assert response.chunks == n_chunks
        reference = sliding_window_inference(
            make_model(), vol[None], patch_shape=(4, 4, 4),
            overlap=0.75, batch_size=256).prediction
        assert np.array_equal(reference[0], response.prediction)


class TestPrioritiesAndShedding:
    def test_backlog_sheds_low_priority_only(self, checkpoint):
        """With the backlog past shed_backlog, low-priority admissions
        are rejected at submit (future.shed, result() raises) while
        high-priority requests still complete."""
        cfg = serve_config(checkpoint, replicas=1, shed_backlog=2,
                           max_delay_ms=0.0)
        vols = volumes(8)
        with ModelServer(cfg) as server:
            keep = [server.submit(v, priority="high")
                    for v in vols[:4]]   # backlog now 4 >= 2
            shed = [server.submit(v, priority="low") for v in vols[4:6]]
            late_high = server.submit(vols[6], priority="high")
            for f in shed:
                assert f.shed and f.done()
                with pytest.raises(RuntimeError, match="shed"):
                    f.result()
            assert server.shed_count() == 2
            server.drain(timeout_s=60)
            for f in keep + [late_high]:
                assert not f.shed
                assert f.result().prediction.shape == (1, 8, 8, 8)

    def test_unknown_priority_rejected(self, checkpoint):
        with ModelServer(serve_config(checkpoint)) as server:
            with pytest.raises(ValueError, match="unknown priority"):
                server.submit(volumes(1)[0], priority="bulk")


class TestAutoscaling:
    def test_backlog_scales_up_and_idle_retires(self, checkpoint):
        cfg = serve_config(
            checkpoint, replicas=1, max_batch=1, max_delay_ms=0.0,
            autoscale=True,
            autoscaler=AutoscalerConfig(
                min_replicas=1, max_replicas=2, backlog_per_replica=2.0,
                scale_up_streak=1, idle_streak=3, cooldown_s=0.0))
        with ModelServer(cfg) as server:
            futs = [server.submit(v) for v in volumes(8)]
            server.step()  # backlog of 8 > 2 per replica: scale up
            assert server.executor.worker_count() == 2
            assert server._target_replicas == 2
            server.drain(timeout_s=60)
            assert all(f.result() is not None for f in futs)
            # sustained idle: the autoscaler retires back to the floor
            deadline = time.monotonic() + 30.0
            while server.executor.worker_count() > 1:
                assert time.monotonic() < deadline, "never retired"
                server.step()
                time.sleep(0.01)
            assert server._target_replicas == 1
            # a retiring drain is not a failure, and serving continues
            assert server.executor.dead_workers() == []
            fut = server.submit(volumes(1)[0])
            server.drain(timeout_s=60)
            assert fut.result().prediction.shape == (1, 8, 8, 8)
