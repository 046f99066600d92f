"""E18 -- the production ``fused`` conv backend against the ``reference``
oracle, at float64 and float32.

The depth-sliced fused backend (``repro.nn.kernels.fused``) only earns
its complexity if a *full* U-Net train step (forward, Dice loss,
backward, Adam update) is at least three times as fast as the
``reference`` einsum backend at both dtypes.  The workload is the
paper's 4-modality U-Net (base_filters=8, depth=4) on a batch-1 volume:
with the paper's global batch of 2 sharded across data-parallel
replicas (Section IV-B), batch 1 is exactly what each worker steps on.

Every registered backend x dtype combination is timed on identical
model state and recorded as its own row under
``backends.<name>.<dtype>`` -- the per-backend rows ``make lint``
requires of a ``kernel_backends`` record -- plus a larger-volume
float32 fused step probing the cache regime the chunking targets.
Besides speed, the run asserts numerical parity (float64 predictions
and flat gradients to rtol 1e-9, and the float32 path to rtol 1e-4) so
no speedup is ever bought with accuracy.  Each combination is timed
``REPEATS`` times over ``STEPS`` steps and the best run is kept; a
machine-readable summary -- including the pinned BLAS thread counts
and CPU metadata that make the numbers comparable across hosts, the
fused chunk budget and the host's per-core L2 size it is sized against --
lands in ``BENCH_kernels.json`` next to this file.
``DISTMIS_BENCH_SMOKE=1`` shrinks the workload so the benchmark
doubles as a smoke test over every backend; the speedup floor is only
enforced on the full-size run (at smoke scale the step is
interpreter-bound, not GEMM-bound).
"""

import json
import time

import numpy as np

from repro.nn import (
    Adam,
    SoftDiceLoss,
    UNet3D,
    use_backend,
    use_compute_dtype,
    workspace,
)
from repro.nn.kernels import available_backends, consume_kernel_seconds, fused
from repro.perf.regression import (
    bench_output_path,
    host_metadata,
    is_smoke_env,
)

SMOKE = is_smoke_env()
REPEATS = 2 if SMOKE else 3
BACKENDS = available_backends()
DTYPES = ("float64", "float32")
MIN_SPEEDUP = 3.0          # fused over reference, at every dtype
# Smoke runs are quarantined onto a temp-dir BENCH_kernels_smoke.json so
# they can never overwrite the committed record.
OUT = bench_output_path(__file__, "kernels", smoke=SMOKE)

if SMOKE:
    VOLUME, BASE_FILTERS, DEPTH, STEPS = (8, 8, 8), 2, 2, 1
    LARGE_VOLUME, LARGE_STEPS, LARGE_REPEATS = (16, 16, 16), 1, 1
else:
    VOLUME, BASE_FILTERS, DEPTH, STEPS = (32, 32, 32), 8, 4, 2
    LARGE_VOLUME, LARGE_STEPS, LARGE_REPEATS = (48, 48, 48), 1, 2
BATCH = 1  # per-replica shard of the paper's global batch 2
# per-core L2 the fused chunks target (read-only sysfs; absent off Linux)
L2_SIZE_PATH = "/sys/devices/system/cpu/cpu0/cache/index2/size"


def _l2_bytes(path=L2_SIZE_PATH) -> int | None:
    """The host's per-core L2 size in bytes (sysfs writes e.g.
    ``2048K``), or ``None`` when the file is absent or unreadable."""
    try:
        with open(path) as f:
            text = f.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper())
    try:
        return int(text[:-1]) * scale if scale else int(text)
    except ValueError:
        return None


def _build(dtype=None, volume=None):
    net = UNet3D(4, 1, base_filters=BASE_FILTERS, depth=DEPTH,
                 rng=np.random.default_rng(7), dtype=dtype)
    net.train()
    return net


def _data(dtype=np.float64, volume=None):
    volume = VOLUME if volume is None else volume
    rng = np.random.default_rng(11)
    x = rng.normal(size=(BATCH, 4, *volume)).astype(dtype, copy=False)
    t = (rng.uniform(size=(BATCH, 1, *volume)) > 0.9).astype(dtype)
    return x, t


def _train_step(net, opt, loss_fn, x, t):
    net.zero_grad()
    pred = net(x)
    _, dpred = loss_fn.forward(pred, t)
    net.backward(dpred)
    opt.step()
    return pred


def _time_backend(name: str, dtype: str = "float64", volume=None,
                  steps=None, repeats=None) -> tuple[float, dict[str, float]]:
    """Best-of-repeats *per-step* seconds under ``name`` at ``dtype``."""
    steps = STEPS if steps is None else steps
    repeats = REPEATS if repeats is None else repeats
    np_dtype = np.float32 if dtype == "float32" else np.float64
    x, t = _data(np_dtype, volume)
    loss_fn = SoftDiceLoss()
    best = float("inf")
    kernels: dict[str, float] = {}
    with use_backend(name), use_compute_dtype(dtype):
        for _ in range(repeats):
            net = _build(dtype=dtype)
            opt = Adam(net, lr=1e-3)
            _train_step(net, opt, loss_fn, x, t)  # warm the workspace
            consume_kernel_seconds()
            t0 = time.perf_counter()
            for _ in range(steps):
                _train_step(net, opt, loss_fn, x, t)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
                kernels = {
                    f"{b}/{op}": round(s / steps, 4)
                    for (b, op), s in consume_kernel_seconds().items()
                }
    return best / steps, kernels


def _grads_and_pred(name: str, dtype=None):
    data_dtype = np.float32 if dtype == "float32" else np.float64
    x, t = _data(data_dtype)
    loss_fn = SoftDiceLoss()
    with use_backend(name):
        net = _build(dtype=dtype)
        net.zero_grad()
        pred = net(x)
        _, dpred = loss_fn.forward(pred, t)
        net.backward(dpred)
        return pred, net.get_flat_grads()


def test_fused_against_reference_parity_and_speedup():
    # -- parity first: same weights, same data, both backends ----------
    pred_ref, grads_ref = _grads_and_pred("reference")
    pred, grads = _grads_and_pred("fused")
    np.testing.assert_allclose(pred, pred_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(grads, grads_ref, rtol=1e-9, atol=1e-12)

    with use_compute_dtype("float32"):
        pred_ref32, grads_ref32 = _grads_and_pred("reference", "float32")
        pred32, grads32 = _grads_and_pred("fused", "float32")
        assert pred_ref32.dtype == np.float32 and pred32.dtype == np.float32
        np.testing.assert_allclose(pred32, pred_ref32, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(grads32, grads_ref32,
                                   rtol=1e-4, atol=1e-5)

    # -- then the race: every backend x dtype row ----------------------
    rows: dict[str, dict[str, dict]] = {}
    for name in BACKENDS:
        rows[name] = {}
        for dtype in DTYPES:
            step_s, kernels = _time_backend(name, dtype)
            rows[name][dtype] = {
                "step_seconds": round(step_s, 4),
                "kernel_seconds": kernels,
            }

    speedups = {dtype: rows["reference"][dtype]["step_seconds"]
                / rows["fused"][dtype]["step_seconds"] for dtype in DTYPES}

    # -- larger-volume float32 point (the cache regime chunking targets)
    fused_large, _ = _time_backend("fused", "float32", LARGE_VOLUME,
                                   LARGE_STEPS, LARGE_REPEATS)

    summary = {
        "benchmark": "kernel_backends",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "steps": STEPS,
        "batch": BATCH,
        "volume_shape": list(VOLUME),
        "base_filters": BASE_FILTERS,
        "depth": DEPTH,
        "backends": rows,
        "speedup": round(speedups["float64"], 3),
        "speedup_float32": round(speedups["float32"], 3),
        "min_speedup": MIN_SPEEDUP,
        "large_volume": {
            "volume_shape": list(LARGE_VOLUME),
            "steps": LARGE_STEPS,
            "dtype": "float32",
            "fused_step_seconds": round(fused_large, 4),
        },
        "chunk_bytes": fused.CHUNK_BYTES,
        "workspace_stats": workspace().stats(),
        "host": {**host_metadata(), "l2_bytes": _l2_bytes()},
    }
    OUT.write_text(json.dumps(summary, indent=2) + "\n")
    for dtype in DTYPES:
        print(f"\n{dtype}: ref {rows['reference'][dtype]['step_seconds']:.3f}s"
              f"  fused {rows['fused'][dtype]['step_seconds']:.3f}s  "
              f"speedup {speedups[dtype]:.2f}x (floor {MIN_SPEEDUP:.1f}x)")
    print(f"-> {OUT.name}")

    if SMOKE:
        import pytest

        pytest.skip("smoke scale: interpreter-bound step; rows recorded, "
                    "floor enforced on the full run")
    for dtype, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"fused backend only {speedup:.2f}x faster than reference at "
            f"{dtype} (floor {MIN_SPEEDUP:.1f}x)")
