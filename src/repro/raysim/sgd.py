"""Synchronous data-parallel SGD (the Ray SGD / MirroredStrategy analogue).

Implements the distribution semantics the paper's data-parallel method
uses, *exactly*:

* every replica starts from broadcast-identical weights;
* each step the global batch is sharded across replicas, every replica
  computes gradients on its shard;
* shard gradients are combined with the chunked ring all-reduce
  (:func:`ring_allreduce`) whose cost the cluster model charges
  (:mod:`repro.cluster.collectives`), weighted by shard size so the
  result equals the full-batch gradient;
* every replica applies the identical update with its own (identical)
  optimizer state, so weights stay in lock-step without re-broadcast --
  the standard synchronous-SGD invariant, asserted in the tests.

Replicas run in processes, one per replica, like DDP.  Replica 0 is
the calling process; replicas ``1 .. n-1`` are forked from it after
its model and optimizer are built, so the fork *is* the initial
broadcast.  Threads do not work here: at the ``train_dp2`` shapes
(float64, 16^3, batch 2 per replica, BLAS pinned to one thread) one
replica alone steps in 21.5 ms, two replica threads at once need
33.6 ms each, and two replica processes 20.5-21.1 ms each -- the
per-layer Python glue between small GEMMs holds the GIL.  Each step the
driver copies every shard into its replica's slot of one
:class:`~repro.execpool.SharedArrayStore` segment, sends a short
message on that replica's pipe, computes replica 0's shard itself,
reads the weighted flat gradients back from the slots, all-reduces
them, writes the sum back and sends "apply".  ``num_replicas=1``
starts no process.

BatchNorm caveat: per-replica statistics (TensorFlow's MirroredStrategy
default) make data-parallel training only *statistically* equivalent to
single-device large-batch training.  With ``sync_batchnorm=True`` the
trainer wires a barrier-based cross-replica reducer into every BN layer
(forward statistics and backward sums), restoring bit-exact equivalence;
the paper's dice-invariance claim (Section IV-C) is validated both ways.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import time
import weakref
from typing import Callable

import numpy as np

from ..execpool.sharedmem import SharedArrayStore
from ..nn.kernels import consume_kernel_seconds, workspace_bytes
from ..nn.layers.batchnorm import BatchNorm
from ..nn.losses import Loss
from ..nn.module import Module
from ..nn.optimizers import Optimizer

__all__ = ["DataParallelTrainer", "SyncGroup", "ring_allreduce"]

_ALIGN = 16  # byte alignment of each value packed into a SyncGroup slot


def _fork_context():
    # Replica processes inherit the built model, optimizer, loss and
    # shared mappings; only fork hands those over without pickling.
    return multiprocessing.get_context("fork")


def _close_store(views, store) -> None:
    views.close()
    store.close()
    store.unlink()


def ring_allreduce(buffers: list[np.ndarray], average: bool = False,
                   telemetry=None) -> list[np.ndarray]:
    """Exact ring all-reduce over per-replica buffers.

    Performs the textbook chunked reduce-scatter followed by an
    all-gather; every returned buffer equals the elementwise sum (or
    mean) of the inputs.  Inputs are not modified.  ``telemetry`` (a
    :class:`repro.telemetry.TelemetryHub`, default the process hub)
    receives the operation count and the wire bytes the ring would move
    -- ``2 (n-1)/n`` of the payload per participant, the quantity the
    cost model prices.
    """
    n = len(buffers)
    if n == 0:
        raise ValueError("need at least one buffer")
    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    payload = sum(b.nbytes for b in buffers)
    telemetry.metrics.counter(
        "allreduce_ops_total", "exact ring all-reduce invocations").inc()
    telemetry.metrics.counter(
        "allreduce_bytes_total",
        "bytes the chunked ring moves over the wire (2(n-1)/n x payload)",
    ).inc(2 * (n - 1) / n * payload)
    shape = buffers[0].shape
    for b in buffers:
        if b.shape != shape:
            raise ValueError("all buffers must share a shape")
    if n == 1:
        # Single replica: no exchange happens, so nothing lands in the
        # "sync" step bucket -- exactly the paper's C1 claim that
        # experiment parallelism pays zero gradient-sync overhead.
        out = buffers[0].astype(np.float64, copy=True)
        return [out]

    t_sync0 = time.perf_counter()
    flat = [b.astype(np.float64).ravel().copy() for b in buffers]
    size = flat[0].size
    bounds = np.linspace(0, size, n + 1).astype(int)
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(n)]

    # Reduce-scatter: after n-1 steps, rank r holds the full sum of
    # chunk (r + 1) mod n.
    for step in range(n - 1):
        for rank in range(n):
            send_chunk = (rank - step) % n
            dst = (rank + 1) % n
            flat_dst_view = flat[dst][chunks[send_chunk]]
            flat_dst_view += flat[rank][chunks[send_chunk]]
    # All-gather: circulate the completed chunks.
    for step in range(n - 1):
        for rank in range(n):
            done_chunk = (rank + 1 - step) % n
            dst = (rank + 1) % n
            flat[dst][chunks[done_chunk]] = flat[rank][chunks[done_chunk]]

    if average:
        for f in flat:
            f /= n
    out = [f.reshape(shape) for f in flat]
    dt = time.perf_counter() - t_sync0
    telemetry.metrics.counter(
        "allreduce_seconds_total",
        "wall-clock spent inside the exact ring all-reduce").inc(dt)
    telemetry.on_step_bucket("sync", dt)
    return out


class SyncGroup:
    """Barrier-synchronised deterministic sum across replicas.

    The replicas may be threads or forked processes: every replica owns
    one ``slot_bytes`` slot of a shared-memory segment, and a
    fork-context :class:`multiprocessing.Barrier` orders the writes and
    reads.  All replicas pass values of the same shapes and dtypes.
    """

    def __init__(self, num_replicas: int, slot_bytes: int = 1 << 16):
        self.n = num_replicas
        self.slot_bytes = slot_bytes
        self._barrier = _fork_context().Barrier(num_replicas)
        store = SharedArrayStore(
            {"slots": np.zeros((num_replicas, slot_bytes), np.uint8)})
        views = store.attach()
        self._slots = views["slots"]
        self._close = weakref.finalize(self, _close_store, views, store)

    def reduce(self, index: int, *values):
        """Deposit this replica's values, wait for all, return the sums
        (computed in fixed replica order, so results are deterministic)."""
        if self._slots is None:
            raise RuntimeError("sync group is closed")
        arrays = [np.asarray(v) for v in values]
        offsets, offset = [], 0
        for a in arrays:
            offsets.append(offset)
            offset += -(-a.nbytes // _ALIGN) * _ALIGN
        if offset > self.slot_bytes:
            raise ValueError(f"{offset} bytes do not fit a "
                             f"{self.slot_bytes}-byte sync slot")
        mine = self._slots[index]
        for a, off in zip(arrays, offsets):
            mine[off:off + a.nbytes] = a.reshape(-1).view(np.uint8)
        self._barrier.wait()
        out = []
        for v, a, off in zip(values, arrays, offsets):
            peers = [slot[off:off + a.nbytes].view(a.dtype).reshape(a.shape)
                     for slot in self._slots]
            total = peers[0].copy()
            for peer in peers[1:]:
                total = total + peer
            out.append(total if isinstance(v, np.ndarray) else type(v)(total))
        self._barrier.wait()  # nobody overwrites slots until all have read
        return tuple(out)

    def abort(self) -> None:
        """Break the barrier: every replica waiting in :meth:`reduce`,
        now or later, raises ``BrokenBarrierError`` (a RuntimeError)."""
        self._barrier.abort()

    def close(self) -> None:
        """Unmap and unlink the slots (idempotent)."""
        self._slots = None
        self._close()


def _make_reducer(group: SyncGroup, replica_idx: int):
    def reducer(total, sq_total, count):
        return group.reduce(replica_idx, total, sq_total, count)
    return reducer


def _wire_sync_batchnorm(model: Module, group: SyncGroup, index: int) -> None:
    for _, m in model.named_modules():
        if isinstance(m, BatchNorm):
            m.stats_reducer = _make_reducer(group, index)


def _shard_grads(model: Module, loss: Loss, x, y, weight: float):
    """Forward/backward one shard; returns the loss and the flat
    gradient, both scaled by ``weight`` so that the all-reduce SUM
    equals the global mean."""
    model.zero_grad()
    pred = model(x)
    loss_val, dpred = loss.forward(pred, y)
    model.backward(dpred)
    return loss_val * weight, model.get_flat_grads() * weight


def _slot_view(slot: np.ndarray, shape: tuple, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    return slot[:math.prod(shape) * dt.itemsize].view(dt).reshape(shape)


def _replica_main(index: int, model: Module, optimizer: Optimizer,
                  loss: Loss, conn, driver_ends: list,
                  group: SyncGroup | None) -> None:
    """Serve one replica until "stop" or until the driver goes away.

    Messages: ``("attach", handle)`` maps a new slot segment;
    ``("step", x_spec, y_spec, weight)`` replies ``("grads", loss,
    kernel_seconds)`` with the gradient in this replica's ``g`` slot;
    ``("apply",)`` applies the reduced gradient from the ``r`` slot (no
    reply); ``("params",)`` and ``("load", path)`` serve
    :meth:`DataParallelTrainer.weights_in_sync` and
    :meth:`DataParallelTrainer.load_checkpoint`.  A failure replies
    ``("error", text)`` in place of the expected message.
    """
    for end in driver_ends:   # so the driver's exit reads as EOF here
        end.close()
    if group is not None:
        _wire_sync_batchnorm(model, group, index)
    consume_kernel_seconds()  # the ledger the fork copied is replica 0's
    # Every attached segment stays mapped: a layer may still cache a
    # view of its last input.
    attached = []
    slots: dict[str, np.ndarray] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "stop":
            return
        try:
            if kind == "attach":
                attached.append(msg[1].attach())
                slots = attached[-1].arrays
            elif kind == "step":
                _, x_spec, y_spec, weight = msg
                loss_w, grads = _shard_grads(
                    model, loss, _slot_view(slots[f"x{index}"], *x_spec),
                    _slot_view(slots[f"y{index}"], *y_spec), weight)
                slots[f"g{index}"][...] = grads
                conn.send(("grads", loss_w, consume_kernel_seconds()))
            elif kind == "apply":
                model.set_flat_grads(slots[f"r{index}"])
                optimizer.step()
            elif kind == "params":
                conn.send(("params", model.get_flat_params()))
            elif kind == "load":
                from ..core.checkpoint import load_checkpoint

                load_checkpoint(msg[1], model, optimizer)
                conn.send(("loaded",))
        except Exception as exc:
            if group is not None:   # peers may wait for us in a reduce
                group.abort()
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                return


def _stop_replicas(procs: list, conns: list, closers: list) -> None:
    """Stop and reap every replica process, then release the shared
    segments.  A replica that does not exit promptly (e.g. stuck in a
    sync-BN barrier whose peer died) is terminated."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except OSError:
            pass   # already dead
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
    for conn in conns:
        conn.close()
    for close in closers:
        close()


class DataParallelTrainer:
    """Train one logical model across ``num_replicas`` virtual GPUs.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building the model; called once, for
        replica 0 -- the other replicas are forked from it.
    loss:
        A :class:`repro.nn.losses.Loss` (must be a batch *mean* for the
        sharding to recompose exactly -- all provided losses are).
    optimizer_factory:
        ``model -> Optimizer``; each replica owns its own instance.
    sync_batchnorm:
        Wire cross-replica reducers into every BatchNorm layer.
    telemetry:
        A :class:`repro.telemetry.TelemetryHub` (default: the process
        hub, usually the null sink).  Per-step loss / step-time /
        all-reduce-byte metrics are recorded through pre-resolved
        metric handles, so the disabled path is a no-op call per event.

    With ``num_replicas > 1`` call :meth:`shutdown` when done; it stops
    the replica processes and unlinks the shared memory.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        loss: Loss,
        optimizer_factory: Callable[[Module], Optimizer],
        num_replicas: int = 1,
        sync_batchnorm: bool = False,
        telemetry=None,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if num_replicas > 1 and multiprocessing.current_process().daemon:
            raise ValueError(
                f"num_replicas={num_replicas} runs replicas 1..n-1 in child "
                f"processes, which a daemonic process (such as an execpool "
                f"worker) cannot start; train with num_replicas=1 there")
        self.num_replicas = num_replicas
        self.loss = loss
        # replica 0; every replica holds identical weights and
        # optimizer state
        self.model: Module = model_factory()
        self.optimizer: Optimizer = optimizer_factory(self.model)
        self.sync_batchnorm = sync_batchnorm
        self.steps_run = 0

        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self._telemetry = telemetry
        m = telemetry.metrics
        self._m_steps = m.counter(
            "train_steps_total", "optimizer steps run")
        self._m_step_seconds = m.histogram(
            "train_step_seconds", "wall-clock per synchronous step")
        self._m_loss = m.histogram(
            "train_loss", "per-step global mean loss",
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0, 10.0))
        self._m_grad_norm = m.gauge(
            "train_grad_norm", "L2 norm of the reduced gradient")
        self._m_lr = m.gauge("train_lr", "learning rate applied last step")
        self._m_kernel_seconds = m.counter(
            "kernel_seconds_total",
            "wall-clock inside dispatched convolution kernels",
            labelnames=("backend", "op"))
        self._m_workspace_bytes = m.gauge(
            "kernel_workspace_bytes",
            "bytes held by the kernel workspace arena")
        # The kernel ledger is process-global: drop whatever an earlier
        # (possibly unprofiled) trial left behind so this trainer only
        # reports its own kernel time.
        consume_kernel_seconds()

        self._procs: list = []
        self._conns: list = []
        self._views = self._release = None
        self._capacity = 0  # bytes of each x / y slot
        self._closers: list = []  # shared segments to release on shutdown
        self._shutdown = weakref.finalize(
            self, _stop_replicas, self._procs, self._conns, self._closers)
        if num_replicas > 1:
            self._start_replicas()

    # -- replica processes -------------------------------------------------
    def _start_replicas(self) -> None:
        group = None
        if self.sync_batchnorm:
            channels = max((m.num_channels
                            for _, m in self.model.named_modules()
                            if isinstance(m, BatchNorm)), default=0)
            group = SyncGroup(self.num_replicas,
                              slot_bytes=3 * (8 * channels + _ALIGN))
            self._closers.append(group.close)
            _wire_sync_batchnorm(self.model, group, 0)
        flat = self.model.get_flat_grads()
        self._grad_spec = (flat.size, flat.dtype)
        ctx = _fork_context()
        for index in range(1, self.num_replicas):
            driver_end, replica_end = ctx.Pipe()
            self._conns.append(driver_end)
            proc = ctx.Process(
                target=_replica_main,
                args=(index, self.model, self.optimizer, self.loss,
                      replica_end, list(self._conns), group),
                daemon=True, name=f"dp-replica-{index}")
            proc.start()
            replica_end.close()
            self._procs.append(proc)

    def _replica_failure(self, index: int) -> RuntimeError:
        proc = self._procs[index - 1]
        proc.join(timeout=1.0)
        return RuntimeError(
            f"data-parallel replica {index} (pid {proc.pid}) exited "
            f"unexpectedly (exit code {proc.exitcode})")

    def _send(self, index: int, msg: tuple) -> None:
        try:
            self._conns[index - 1].send(msg)
        except OSError:
            raise self._replica_failure(index) from None

    def _recv(self, index: int, kind: str) -> tuple:
        try:
            msg = self._conns[index - 1].recv()
        except (EOFError, OSError):
            raise self._replica_failure(index) from None
        if msg[0] != kind:
            raise RuntimeError(f"data-parallel replica {index} failed: "
                               f"{msg[1] if msg[0] == 'error' else msg}")
        return msg

    def _ensure_capacity(self, nbytes: int) -> None:
        """(Re)publish the slot segment when a shard outgrows it."""
        if self._views is not None and nbytes <= self._capacity:
            return
        size, dtype = self._grad_spec
        arrays = {}
        for r in range(1, self.num_replicas):
            arrays[f"x{r}"] = np.zeros(nbytes, np.uint8)
            arrays[f"y{r}"] = np.zeros(nbytes, np.uint8)
            arrays[f"g{r}"] = np.zeros(size, dtype)
            arrays[f"r{r}"] = np.zeros(size, np.float64)
        store = SharedArrayStore(arrays)
        views = store.attach()
        for r in range(1, self.num_replicas):
            self._send(r, ("attach", store.handle))
        if self._release is not None:
            self._closers.remove(self._release)
            self._release()
        # a partial, not a bound method: the shutdown finalizer must not
        # keep the trainer alive
        self._release = functools.partial(_close_store, views, store)
        self._closers.append(self._release)
        self._views, self._capacity = views, nbytes

    def _replica_grads(self, x, y, shards, weights, kernel_seconds: dict):
        """Run every shard: replicas ``1..n-1`` in their processes, 0
        here.  Returns ``[(weighted loss, weighted flat grads)]`` in
        replica order; the replicas' kernel seconds are added to
        ``kernel_seconds``."""
        if self.num_replicas == 1:
            return [_shard_grads(self.model, self.loss, x, y, weights[0])]
        if not self._shutdown.alive:
            raise RuntimeError("trainer is shut down")
        for r, proc in enumerate(self._procs, start=1):
            if not proc.is_alive():
                raise self._replica_failure(r)
        self._ensure_capacity(max(max(x[s].nbytes, y[s].nbytes)
                                  for s in shards[1:]))
        for r in range(1, self.num_replicas):
            xs, ys = x[shards[r]], y[shards[r]]
            specs = []
            for name, a in (("x", xs), ("y", ys)):
                specs.append((a.shape, a.dtype.str))
                _slot_view(self._views[f"{name}{r}"], *specs[-1])[...] = a
            self._send(r, ("step", *specs, weights[r]))
        outs = [_shard_grads(self.model, self.loss, x[shards[0]],
                             y[shards[0]], weights[0])]
        for r in range(1, self.num_replicas):
            _, loss_w, seconds = self._recv(r, "grads")
            outs.append((loss_w, self._views[f"g{r}"].copy()))
            for key, value in seconds.items():
                kernel_seconds[key] = kernel_seconds.get(key, 0.0) + value
        return outs

    def _apply(self, reduced: list) -> float:
        """Every replica applies the reduced gradient with its own
        optimizer; returns replica 0's learning rate."""
        for r in range(1, self.num_replicas):
            self._views[f"r{r}"][...] = reduced[r]
            self._send(r, ("apply",))
        self.model.set_flat_grads(reduced[0])
        return self.optimizer.step()

    def _record_kernel_stats(self, replica_seconds: dict) -> None:
        """Drain this process's kernel-seconds ledger, plus what the
        replica processes drained from theirs, into telemetry."""
        if not self._telemetry.enabled:
            return
        seconds = consume_kernel_seconds()
        for key, value in replica_seconds.items():
            seconds[key] = seconds.get(key, 0.0) + value
        for (backend, op), value in seconds.items():
            self._m_kernel_seconds.labels(backend=backend, op=op).inc(value)
        self._m_workspace_bytes.set(float(workspace_bytes()))

    # -- training ----------------------------------------------------------
    def _shards(self, n: int) -> list[slice]:
        if n < self.num_replicas:
            raise ValueError(
                f"global batch of {n} cannot be sharded over "
                f"{self.num_replicas} replicas (the paper uses "
                f"2 x #GPUs, Section IV-B)"
            )
        bounds = np.linspace(0, n, self.num_replicas + 1).astype(int)
        return [slice(bounds[i], bounds[i + 1]) for i in range(self.num_replicas)]

    def train_step(self, x: np.ndarray, y: np.ndarray) -> dict:
        """One synchronous step on the global batch ``(x, y)``.

        Returns ``{"loss": global_mean_loss, "lr": lr_used}``.
        """
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y batch sizes differ")
        t0 = time.perf_counter()
        n_total = x.shape[0]
        shards = self._shards(n_total)
        weights = [(s.stop - s.start) / n_total for s in shards]
        replica_seconds: dict = {}
        outs = self._replica_grads(x, y, shards, weights, replica_seconds)
        t_fb = time.perf_counter()

        # every replica now holds the sum
        reduced = ring_allreduce([g for _, g in outs],
                                 telemetry=self._telemetry)
        t_sync_done = time.perf_counter()
        lr = self._apply(reduced)
        # forward-backward plus the optimizer update; the all-reduce in
        # between attributes itself to the "sync" bucket
        self._telemetry.on_step_bucket(
            "compute", (t_fb - t0) + (time.perf_counter() - t_sync_done))
        self._record_kernel_stats(replica_seconds)

        self.steps_run += 1
        loss_total = float(sum(l for l, _ in outs))
        self._m_steps.inc()
        self._m_step_seconds.observe(time.perf_counter() - t0)
        self._m_loss.observe(loss_total)
        self._m_lr.set(lr)
        if self._telemetry.enabled:  # the norm is a derived computation
            self._m_grad_norm.set(float(np.linalg.norm(reduced[0])))
        return {"loss": loss_total, "lr": lr}

    def load_checkpoint(self, path) -> dict:
        """Restore model + optimizer from ``path`` on every replica (the
        resume path); returns the checkpoint's metadata."""
        from ..core.checkpoint import load_checkpoint

        meta = load_checkpoint(path, self.model, self.optimizer)
        for r in range(1, self.num_replicas):
            self._send(r, ("load", str(path)))
        for r in range(1, self.num_replicas):
            self._recv(r, "loaded")
        return meta

    def weights_in_sync(self, atol: float = 0.0) -> bool:
        """Check the lock-step invariant across all replicas (fetches
        every replica process's parameters)."""
        ref = self.model.get_flat_params()
        for r in range(1, self.num_replicas):
            self._send(r, ("params",))
        params = [self._recv(r, "params")[1]
                  for r in range(1, self.num_replicas)]
        return all(np.allclose(p, ref, atol=atol, rtol=0.0) for p in params)

    def shutdown(self) -> None:
        """Stop the replica processes and unlink the shared memory
        (idempotent)."""
        self._shutdown()
