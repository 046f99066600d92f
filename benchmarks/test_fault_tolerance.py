"""E13 -- fault tolerance under the two distribution methods.

An extension of the paper's §IV-C "self-contained runs" argument: a GPU
failure during a *data-parallel* step stalls the whole allocation (the
synchronous all-reduce needs every replica), so the effective mean time
between failures for the search is MTBF / n.  Under *experiment
parallelism* a failure takes down exactly one trial, which restarts
(from its last checkpoint) while the other 31 GPUs keep working.

The experiment-parallel side runs through the failure-injecting event
loop (``run_with_failures``) with per-epoch checkpoints, exactly as
``distmis simulate --failures`` does; the data-parallel side uses the
renewal-theory slowdown for a single synchronous task with n-fold
failure rate.
"""

from conftest import once

from repro.cluster.failures import FailureModel, expected_slowdown, run_with_failures
from repro.perf import calibrated_model, paper_search_grid

GPUS = 32
MTBF_HOURS = (48.0, 24.0, 12.0)
REPAIR_S = 600.0


def _sweep():
    model = calibrated_model()
    grid = paper_search_grid()
    durations = [model.trial_time(c, 1) for c in grid]
    dp_trials = [model.trial_time(c, GPUS) for c in grid]
    epochs = [c.epochs for c in grid]

    out = {}
    for mtbf_h in MTBF_HOURS:
        mtbf = mtbf_h * 3600.0
        # Experiment parallel: per-GPU failures, per-epoch checkpoints
        # (a failure loses at most the epoch in flight).
        ep_model = FailureModel(mtbf_s=mtbf, repair_s=REPAIR_S)
        ep = run_with_failures(durations, GPUS, ep_model, seed=1,
                               num_epochs=epochs)
        # Data parallel: whole-allocation coupling -> any of the n GPUs
        # failing stalls the synchronous step, so the search runs at an
        # effective MTBF of mtbf / n.  Per-epoch checkpoints split each
        # trial into restartable segments of one epoch (t / epochs);
        # renewal theory prices each segment, so
        #   E[T] = t * expected_slowdown(segment, model).
        dp_model = FailureModel(mtbf_s=mtbf / GPUS, repair_s=REPAIR_S)
        dp_healthy = sum(dp_trials)
        dp_time = sum(
            t * expected_slowdown(t / e, dp_model)
            for t, e in zip(dp_trials, epochs)
        )
        out[mtbf_h] = {
            "ep_makespan": ep.makespan,
            "ep_failures": ep.num_failures,
            "ep_wasted": ep.wasted_seconds,
            "dp_time": dp_time,
            "dp_healthy": dp_healthy,
        }
    healthy_ep = run_with_failures(
        durations, GPUS, FailureModel(mtbf_s=1e15), seed=1
    ).makespan
    return out, healthy_ep


def test_fault_tolerance_comparison(benchmark):
    result, healthy_ep = once(benchmark, _sweep)

    print("\n=== E13: failure sensitivity at 32 GPUs "
          "(per-epoch checkpoints, 10 min repair) ===")
    print(f"{'MTBF/GPU':>9} {'ep makespan h':>14} {'ep fails':>9} "
          f"{'ep overhead':>12} {'dp overhead':>12}")
    for mtbf_h, row in result.items():
        ep_over = row["ep_makespan"] / healthy_ep - 1
        dp_over = row["dp_time"] / row["dp_healthy"] - 1
        print(f"{mtbf_h:>7.0f}h {row['ep_makespan']/3600:>14.2f} "
              f"{row['ep_failures']:>9} {100*ep_over:>11.1f}% "
              f"{100*dp_over:>11.1f}%")

    for mtbf_h, row in result.items():
        ep_over = row["ep_makespan"] / healthy_ep - 1
        dp_over = row["dp_time"] / row["dp_healthy"] - 1
        # the self-contained method degrades more gracefully
        assert dp_over >= ep_over - 0.01, mtbf_h
    # shorter MTBF, more failures
    fails = [row["ep_failures"] for row in result.values()]
    assert fails[-1] >= fails[0]
