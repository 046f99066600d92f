#!/usr/bin/env python3
"""Reproduce Table I and Figure 4 on the simulated MareNostrum-CTE.

Prices the full paper-scale hyper-parameter search (20 trials, 484
volumes, 250 epochs, V100 nodes of 4) under both distribution methods
at 1..32 GPUs using the calibrated cost model and Ray Tune's greedy
trial placement, printing the reproduction next to the paper's numbers.

Run:  python examples/reproduce_table1.py
"""

from repro.core.runner import DistMISRunner
from repro.perf import (
    TABLE1_DATA_PARALLEL_S,
    TABLE1_DP_SPEEDUPS,
    TABLE1_EP_SPEEDUPS,
    TABLE1_EXPERIMENT_PARALLEL_S,
    format_hms,
)


def main() -> None:
    runner = DistMISRunner()
    print("simulating 3 jittered runs per cell "
          "(the paper averaged three executions)...\n")
    report = runner.simulate_comparison(
        gpu_counts=(1, 2, 4, 8, 12, 16, 32), num_runs=3, base_seed=0
    )

    print("=== Table I (ours vs paper) ===")
    print(f"{'#GPUs':>5} | {'dp ours':>10} {'dp paper':>10} | "
          f"{'ep ours':>10} {'ep paper':>10} | "
          f"{'x dp':>6} {'(ppr)':>6} | {'x ep':>6} {'(ppr)':>6}")
    for row in report.table_rows():
        n = row["num_gpus"]
        print(
            f"{n:>5} | {format_hms(row['dp_elapsed']):>10} "
            f"{format_hms(TABLE1_DATA_PARALLEL_S[n]):>10} | "
            f"{format_hms(row['ep_elapsed']):>10} "
            f"{format_hms(TABLE1_EXPERIMENT_PARALLEL_S[n]):>10} | "
            f"{row['dp_speedup']:>6.2f} {TABLE1_DP_SPEEDUPS[n]:>6.2f} | "
            f"{row['ep_speedup']:>6.2f} {TABLE1_EP_SPEEDUPS[n]:>6.2f}"
        )

    print("\n" + report.render_figure_series())

    gaps = dict(report.crossover_gap())
    print(f"\nspeed-up gap (experiment - data parallel) at 32 GPUs: "
          f"+{gaps[32]:.2f} (paper: +{15.19 - 13.18:.2f})")

    # A peek at the execution trace behind one cell.
    run = runner.simulate("experiment_parallel", 8, seed=0)
    tl = run.timeline
    print(f"\ntrace of experiment-parallel @ 8 GPUs: "
          f"{len(tl.events)} trials over {len(tl.resources())} GPUs, "
          f"mean utilisation {tl.mean_utilization():.0%}")
    print("export with timeline.to_chrome_trace('trace.json') "
          "and open in chrome://tracing")


if __name__ == "__main__":
    main()
