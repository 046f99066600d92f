"""Production inference serving for the best tuned model.

The tuning pipeline ends with a best-trial checkpoint; this package is
what runs it: a pool of checkpoint-loaded model replicas on warm worker
processes (:mod:`repro.execpool`) behind an admission queue with
dynamic micro-batching, size-based routing between full-volume and
sliding-window inference, heartbeat/fail-over-backed retries for
replica crashes, and a telemetry-driven autoscaler.  ``distmis
serve-bench`` load-tests the stack and writes the serving latency
record (``BENCH_serving.json``).

Small requests ride whole-request full-volume tasks.  Large requests
are always served scatter--gather: the driver decomposes a
sliding-window request into single-chunk tasks, admits at most one
per live replica at a time (so a small request waits for at most one
chunk, never a large request's fan-out), and stitches the gathered
chunks.  Release order between requests is weighted-fair, and
``submit(..., priority=)`` weights that fair scheduler via
:data:`PRIORITIES`; past a configurable backlog, low-priority
admissions are shed at submit.

Served predictions are bit-identical to the offline strategies
(:func:`repro.core.inference.full_volume_inference` /
:func:`repro.core.inference.sliding_window_inference`) on the same
volume -- see :mod:`repro.serve.replica` for why micro-batching and
chunk scheduling amortise dispatch, never regroup the GEMM.
"""

from .autoscaler import Autoscaler, AutoscalerConfig
from .batcher import BatchKey, MicroBatcher
from .bench import run_serve_bench, write_serving_record
from .replica import replica_factory
from .server import (
    PRIORITIES,
    InferenceResponse,
    ModelServer,
    ServeConfig,
    ServeFuture,
)

__all__ = [
    "PRIORITIES",
    "Autoscaler",
    "AutoscalerConfig",
    "BatchKey",
    "MicroBatcher",
    "run_serve_bench",
    "write_serving_record",
    "replica_factory",
    "InferenceResponse",
    "ModelServer",
    "ServeConfig",
    "ServeFuture",
]
