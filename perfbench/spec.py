"""Everything perfbench declares: workloads, sizes, metric names, units, bounds.

``BENCHMARK.json`` at the repo root must say the same thing; ``run.py
--check`` compares the two through :func:`check_declarations`.  This
module imports nothing from ``repro`` so the check runs anywhere.
"""

from __future__ import annotations

import math
import re

RUN_SECONDS = 16

# A request slower than this counts as failed.  Sized so that `failed`
# counts a server that fell behind, not a stall of the shared 2-core
# host (stalls of up to ~1.3 s were seen in 1 run of 20 while sizing).
SMALL_LIMIT_MS = 2000.0
LARGE_LIMIT_MS = 5000.0

TRAIN = "train"
SERVE = "serve"

# Sizes are what the issue measured to ~16 s of timed work on a 2-core
# host; `epochs` scales with --seconds / RUN_SECONDS, the serve
# workloads send for exactly --seconds.  `window_s`: op percentiles are
# the median over windows this long of each window's percentile.
# `behind_ms`: only small requests due this soon behind a large one are
# timed operations (README "Deviations" says why, for both).
WORKLOADS = {
    "search_pool": {
        "kind": TRAIN,
        "why": "Paper's headline path (experiment parallelism): 4 trials x "
               "27 epochs on a 2-worker process pool, float32; workers are "
               "~98% busy in nn forward/backward, so a kernel change must "
               "show here most.",
        "space": {"learning_rate": [1e-2, 1e-3], "loss": ["dice", "bce"]},
        "epochs": 27, "subjects": 10, "volume": 24, "base_filters": 4,
        "depth": 3, "workers": 2, "replicas": 1, "dtype": "float32",
    },
    "train_dp2": {
        "kind": TRAIN,
        "why": "Paper's other method (data parallelism): 1 trial x 130 "
               "epochs on 2 replica threads, float64, 16^3; record reads, "
               "validation, checkpoint save and all-reduce are a large "
               "share of each ~90 ms epoch.",
        "space": {"learning_rate": [1e-3], "loss": ["dice"]},
        "epochs": 130, "subjects": 12, "volume": 16, "base_filters": 4,
        "depth": 2, "workers": 0, "replicas": 2, "dtype": "float64",
    },
    "serve_small": {
        "kind": SERVE,
        "why": "Independent users, open loop: Poisson 60 req/s of 16^3 "
               "full-volume requests on 2 replicas; batching deadline, "
               "poll loop and execpool IPC dominate the median, nn runs "
               "forward-only in many short tasks.",
        "rate": 60.0, "large_every": 0, "window_s": 1.0,
    },
    "serve_mixed": {
        "kind": SERVE,
        "why": "Poisson 60 req/s, every 24th a 32^3 volume scattered into "
               "sliding-window chunks; timed: small requests due <= 70 ms "
               "behind a large one, the ones its fan-out delays; a fairness "
               "change moves them.",
        "rate": 60.0, "large_every": 24, "behind_ms": 70.0,
    },
}

# the served model and volumes (both serve workloads)
SERVE_MODEL = {"in_channels": 4, "out_channels": 1, "base_filters": 4,
               "depth": 2, "use_batchnorm": True}
SERVE_REPLICAS = 2
SMALL_SIDE = 16
LARGE_SIDE = 32
SMALL_VOLUMES = 8     # distinct small volumes, replayed round-robin
LARGE_VOLUMES = 2

# (name, unit, better, bound) -- every workload reports every one.  The
# time bounds sit at the contract's ceiling because the shared 2-core
# host drifts: identical work cost 14.4-23.0 CPU-seconds within one set
# of ten (README "Baseline"); resident memory does not drift.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_ALL = frozenset(WORKLOADS)
_TRAINING = frozenset({"search_pool", "train_dp2"})
_SERVING = frozenset({"serve_small", "serve_mixed"})
_POOLED = frozenset({"search_pool"}) | _SERVING

# (name, unit, better, workloads that exercise the layer call); a
# workload outside the set prints 0 and lists the metric as not
# exercised.  README.md says which end-to-end metric each should move.
PER_LAYER = [
    ("cli.import_ms", "ms", "lower", _ALL),
    ("data.binarize_ms_per_subject", "ms", "lower", _TRAINING),
    ("data.split_load_ms", "ms", "lower", _TRAINING),
    ("data.epoch_read_ms", "ms", "lower", _TRAINING),
    ("data.decode_us_per_example", "us", "lower", _TRAINING),
    ("nn.model_build_ms", "ms", "lower", _ALL),
    ("nn.first_step_ms", "ms", "lower", _TRAINING),
    ("nn.forward_ms", "ms", "lower", _TRAINING),
    ("nn.backward_ms", "ms", "lower", _TRAINING),
    ("nn.loss_ms", "ms", "lower", _TRAINING),
    ("nn.opt_step_ms", "ms", "lower", _TRAINING),
    ("nn.predict_ms", "ms", "lower", _ALL),
    ("nn.conv_share", "share", "higher", _ALL),
    ("nn.workspace_mb", "MB", "lower", _ALL),
    ("core.val_eval_ms", "ms", "lower", _TRAINING),
    ("core.checkpoint_save_ms", "ms", "lower", frozenset({"train_dp2"})),
    ("core.checkpoint_load_ms", "ms", "lower",
     frozenset({"train_dp2"}) | _SERVING),
    ("core.sw_plan_ms", "ms", "lower", frozenset({"serve_mixed"})),
    ("core.stitch_ms", "ms", "lower", frozenset({"serve_mixed"})),
    ("cluster.allreduce_ms", "ms", "lower", _TRAINING),
    ("raysim.dp_step_ms", "ms", "lower", _TRAINING),
    ("raysim.dp_efficiency", "ratio", "higher", frozenset({"train_dp2"})),
    ("raysim.tune_us_per_trial", "us", "lower", frozenset({"search_pool"})),
    ("execpool.pool_start_ms", "ms", "lower", _POOLED),
    ("execpool.shutdown_ms", "ms", "lower", _POOLED),
    ("execpool.shm_publish_ms", "ms", "lower", frozenset({"search_pool"})),
    ("execpool.shm_attach_ms", "ms", "lower", frozenset({"search_pool"})),
    ("execpool.roundtrip_ms", "ms", "lower", _POOLED),
    ("execpool.worker_busy_share", "share", "higher", _POOLED),
    ("serve.start_ms", "ms", "lower", _SERVING),
    ("serve.submit_us", "us", "lower", _SERVING),
    ("serve.submit_large_ms", "ms", "lower", frozenset({"serve_mixed"})),
    ("serve.step_us", "us", "lower", _SERVING),
    ("serve.queue_wait_ms", "ms", "lower", _SERVING),
    ("serve.batch_wait_ms", "ms", "lower", _SERVING),
    ("serve.dispatch_ms", "ms", "lower", _SERVING),
    ("serve.compute_ms", "ms", "lower", _SERVING),
    ("serve.stitch_ms", "ms", "lower", _SERVING),
    ("serve.batch_size_mean", "count", "higher", _SERVING),
    ("serve.large_p50_ms", "ms", "lower", frozenset({"serve_mixed"})),
    ("serve.batcher_us_per_item", "us", "lower", _SERVING),
    ("serve.late_ms", "ms", "lower", _SERVING),
    ("telemetry.hub_overhead_ratio", "ratio", "lower",
     frozenset({"train_dp2"})),
    ("bench.trace_overhead_ratio", "ratio", "lower", _ALL),
    ("bench.unattributed_share", "share", "lower", _ALL),
]

# serve.dispatch_ms is 0 whenever the replica's compute window fills the
# driver-observed one (the request tracer caps it); the unattributed
# share is a residual and may have either sign.
MAY_BE_ZERO = frozenset({"serve.dispatch_ms", "bench.unattributed_share"})


def epochs_for(workload: str, seconds: float) -> int:
    """Epoch budget of a training workload at ``--seconds`` (>= 3: the
    correctness check replays two epochs and needs one interval)."""
    full = WORKLOADS[workload]["epochs"]
    return max(3, int(round(full * seconds / RUN_SECONDS)))


def trials_of(workload: str) -> int:
    n = 1
    for values in WORKLOADS[workload]["space"].values():
        n *= len(values)
    return n


def requests_for(workload: str, seconds: float) -> tuple[int, int]:
    """``(small, large)`` request counts of a serve workload."""
    w = WORKLOADS[workload]
    total = max(1, int(round(w["rate"] * seconds)))
    large = total // w["large_every"] if w["large_every"] else 0
    return total - large, large


def attempted_for(workload: str, seconds: float) -> int:
    """Epoch reports expected / requests sent."""
    if WORKLOADS[workload]["kind"] == TRAIN:
        return trials_of(workload) * epochs_for(workload, seconds)
    return sum(requests_for(workload, seconds))


def op_samples_for(workload: str, seconds: float) -> int:
    """User-visible operations timed: report intervals / small requests
    (with ``behind_ms``, the expected number of small requests due that
    soon behind a large one; the count itself varies with the seed)."""
    w = WORKLOADS[workload]
    if w["kind"] == TRAIN:
        return trials_of(workload) * (epochs_for(workload, seconds) - 1)
    small, large = requests_for(workload, seconds)
    if "behind_ms" in w:
        return int(large * (small / seconds) * w["behind_ms"] / 1e3)
    return small


def samples_beyond(n: int, q: float) -> int:
    """Whole samples above the ``q``-th percentile of ``n``."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check_declarations(benchmark: dict) -> list[str]:
    """Problems that make ``BENCHMARK.json`` disagree with this module
    or with the benchmark contract (empty list = consistent)."""
    problems: list[str] = []
    if benchmark.get("run_seconds") != RUN_SECONDS:
        problems.append(f"run_seconds {benchmark.get('run_seconds')!r} != "
                        f"{RUN_SECONDS}")
    declared = {w.get("name"): w.get("why") for w in
                benchmark.get("workloads", [])}
    expected = {name: w["why"] for name, w in WORKLOADS.items()}
    if declared != expected:
        problems.append("workloads/why differ from spec.WORKLOADS: "
                        f"{sorted(set(declared) ^ set(expected)) or 'why text'}")
    for name, why in expected.items():
        if len(why) > 200 or "\n" in why:
            problems.append(f"why of {name} is not one line of <= 200 chars")
    e2e = [(m.get("name"), m.get("unit"), m.get("better"), m.get("bound"))
           for m in benchmark.get("end_to_end", [])]
    if e2e != END_TO_END:
        problems.append("end_to_end differs from spec.END_TO_END")
    layers = [(m.get("name"), m.get("unit"), m.get("better"))
              for m in benchmark.get("per_layer", [])]
    if layers != [m[:3] for m in PER_LAYER]:
        problems.append("per_layer differs from spec.PER_LAYER")
    names = ([m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
             + list(WORKLOADS))
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for name in names:
        if not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    for name, unit, better, *_ in END_TO_END + PER_LAYER:
        if not _UNIT.match(unit):
            problems.append(f"bad unit {unit!r} on {name}")
        if better not in ("lower", "higher"):
            problems.append(f"bad direction {better!r} on {name}")
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    for name, bound in bounds.items():
        if not 0 < bound <= 0.25:
            problems.append(f"bound of {name} outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")
    for name in WORKLOADS:
        n = op_samples_for(name, RUN_SECONDS)
        if samples_beyond(n, 90) < 10:
            problems.append(f"{name}: {n} samples leave "
                            f"{samples_beyond(n, 90)} < 10 beyond p90")
    return problems
