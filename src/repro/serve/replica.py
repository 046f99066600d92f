"""Worker-side model replica: checkpoint-loaded, batch-serving trainable.

A replica is what :class:`repro.execpool.executor.ProcessPoolTrialExecutor`
builds *inside each worker process* from :func:`replica_factory`: the
model is constructed once per worker, the best-trial checkpoint is
restored into it through the same bit-exact ``.npz`` round-trip training
uses (:func:`repro.core.checkpoint.load_checkpoint`), and the returned
callable then serves micro-batches shipped over the task queue for the
lifetime of the process.

Bit-identity contract
---------------------
A replica task is one of two types.  A full-volume task
(``strategy="full_volume"``) answers whole requests through
:func:`repro.core.inference.full_volume_inference`, whose inner loop
forwards **one sample per ``model.predict`` call**.  A scatter--gather
task (``strategy="sw_chunks"``) carries **one patch chunk** of a
sliding-window request and runs **one ``model.predict``** on it, the
chunk being exactly one of offline
:func:`~repro.core.inference.chunk_bounds`'s invocations; the
prediction ships back for **driver-side** stitching, so a request's
chunks can come from different replicas and still reassemble
bit-identically to :func:`~repro.core.inference.sliding_window_inference`.

Under the ``fused`` backend a batched eval forward is bit-identical
to the per-sample forwards (batch invariance, pinned by
``tests/unit/nn/test_unet3d.py::TestBatchInvariance``), and a batch
costs about as much as its samples run one by one.  Regrouping would
therefore save no arithmetic; the offline grouping is kept as the
contract, so a served prediction
is bit-identical to a solo offline call on the same volume by
construction, whatever task the request happened to ride in --
micro-batching amortises the *dispatch* cost (queue hand-off,
volume pickling, Python call overhead), not the GEMM.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.checkpoint import load_checkpoint
from ..core.inference import full_volume_inference
from ..nn.kernels import consume_kernel_seconds

__all__ = ["replica_factory"]


def replica_factory(checkpoint: str, model_builder, model_kwargs=None,
                    compute_dtype=None):
    """Build one serving replica (runs in the worker at startup).

    ``model_builder(**model_kwargs)`` must be picklable by reference
    (a class or module-level function, e.g. :class:`repro.nn.UNet3D`);
    the heavyweight weights never cross the process boundary -- each
    worker reads the checkpoint file itself.  ``compute_dtype``
    installs the worker's kernel dtype policy (float32 serving mode)
    *before* the model is built, so weights load straight into the
    serving precision.

    Returns the ``(config, reporter) -> dict`` trainable the pool runs
    per task.  A task config is one full-volume micro-batch::

        {"volumes": (N, C, D, H, W) array, "strategy": "full_volume"}

    or one scatter--gather chunk task::

        {"strategy": "sw_chunks", "chunk": (n, C, *patch) array,
         "request_id": owning request, "chunk_index": index within it}
    """
    if compute_dtype is not None:
        from ..nn.dtypes import set_compute_dtype

        set_compute_dtype(compute_dtype)
    model = model_builder(**dict(model_kwargs or {}))
    meta = load_checkpoint(checkpoint, model)

    def serve_batch(config, reporter):
        from ..telemetry import get_hub

        strategy = config.get("strategy", "full_volume")
        # Trace-context re-attachment: the driver ships the per-request
        # contexts inside the task dict; recording the compute span on
        # this process's hub (streamed back as a telemetry frame) is
        # what parents replica work -- with its real pid -- into the
        # per-request timelines of the merged Chrome trace.
        trace = config.get("trace") or {}
        contexts = trace.get("contexts") or {}
        hub = get_hub()
        span_attrs = dict(
            category="serve",
            batch_id=str(trace.get("batch_id", "")),
            attempt=int(trace.get("attempt", 0)),
            strategy=strategy,
            request_ids=sorted(contexts),
            trace_ids=sorted({str(c.get("trace_id", ""))
                              for c in contexts.values()}))
        # The compute window on CLOCK_MONOTONIC, which every process on
        # the host shares: the driver reads started/compute off it, not
        # off when it happened to poll the replica's messages.
        t0 = time.monotonic()
        if strategy == "sw_chunks":
            final = _serve_chunk(model, config, contexts, hub, span_attrs)
        else:
            final = _serve_volumes(model, config, strategy, hub,
                                   span_attrs)
        final["compute_mono"] = (t0, time.monotonic())
        # Drain the per-{backend,op} kernel-seconds ledger every batch:
        # long-lived replicas must not accumulate it unboundedly (the
        # trainer drains it per step; nothing else in this process
        # does), and the attribution rides back with the result.
        kernel_seconds = {
            f"{backend}/{op}": seconds
            for (backend, op), seconds in consume_kernel_seconds().items()
        }
        # Per-op children of the compute span (ending now, PR 8 ledger)
        for key, seconds in kernel_seconds.items():
            hub.tracer.add_completed(
                f"kernel:{key}", float(seconds), category="kernel",
                batch_id=str(trace.get("batch_id", "")))
        final["strategy"] = strategy
        final["checkpoint_epoch"] = meta.get("epoch")
        final["kernel_seconds"] = kernel_seconds
        return final

    return serve_batch


def _serve_volumes(model, config, strategy, hub, span_attrs) -> dict:
    """Full-volume task: stacked (N, C, D, H, W) batch, one
    ``model.predict`` per sample inside."""
    if strategy != "full_volume":
        raise ValueError(f"unknown inference strategy {strategy!r}")
    volumes = np.asarray(config["volumes"])
    if volumes.ndim != 5:
        raise ValueError(
            f"expected a (N, C, D, H, W) batch, got {volumes.shape}")
    with hub.tracer.span("replica_compute", **span_attrs):
        res = full_volume_inference(model, volumes)
    return {
        "prediction": res.prediction,
        "seconds": res.seconds,
        "forward_passes": res.forward_passes,
        "model_invocations": res.model_invocations,
    }


def _serve_chunk(model, config, contexts, hub, span_attrs) -> dict:
    """Scatter--gather task: one ``model.predict`` on one patch chunk
    (offline grouping preserved -- bit-identity), the prediction shipped
    back for driver-side stitching.  The chunk's worker-side span
    carries the owning request's trace id, so the merged Chrome trace
    shows the request fanned across worker pids."""
    chunk = np.asarray(config["chunk"])
    if chunk.ndim != 5:
        raise ValueError(
            f"expected a (n, C, pd, ph, pw) chunk, got {chunk.shape}")
    owner = str(config["request_id"])
    ctx = contexts.get(owner) or {}
    with hub.tracer.span("replica_compute", **span_attrs):
        t0 = time.perf_counter()
        with hub.tracer.span(
                "sw_chunk", category="serve", request_id=owner,
                chunk=int(config["chunk_index"]),
                trace_id=str(ctx.get("trace_id", ""))):
            prediction = model.predict(chunk)
        seconds = time.perf_counter() - t0
    return {
        "prediction": prediction,
        "seconds": seconds,
        "forward_passes": int(chunk.shape[0]),
        "model_invocations": 1,
    }
