"""E2/E3 -- Figure 4: mean elapsed time (with min/max bars) and mean
speed-up per GPU count, both methods, three jittered runs each (the
paper ran every execution three times and reports the average).
"""

from conftest import once

from repro.core.runner import DistMISRunner
from repro.perf import TABLE1_DP_SPEEDUPS, TABLE1_EP_SPEEDUPS


def _run_comparison():
    return DistMISRunner().simulate_comparison(
        gpu_counts=(1, 2, 4, 8, 12, 16, 32), num_runs=3, base_seed=0
    )


def _ascii_series(values, width=40):
    """Cheap terminal bar chart for the figure series."""
    top = max(values)
    return [
        "#" * max(1, int(round(width * v / top))) for v in values
    ]


def test_fig4_elapsed_and_speedup(benchmark):
    report = once(benchmark, _run_comparison)

    print("\n=== Fig 4a: mean elapsed hours per #GPUs (min..max of 3 runs) ===")
    for series in (report.dp, report.ep):
        means = series.mean()
        mins, maxs = series.minimum(), series.maximum()
        print(f"-- {series.method}")
        for n, m, lo, hi, bar in zip(
            series.gpu_counts, means, mins, maxs, _ascii_series(means)
        ):
            print(f"  {n:>3} GPUs  {m/3600:6.2f} h "
                  f"[{lo/3600:6.2f} .. {hi/3600:6.2f}]  {bar}")

    print("\n=== Fig 4b: mean speed-up per #GPUs ===")
    paper = {"data_parallel": TABLE1_DP_SPEEDUPS,
             "experiment_parallel": TABLE1_EP_SPEEDUPS}
    for series in (report.dp, report.ep):
        sp = series.speedups()
        print(f"-- {series.method}")
        for n, s in zip(series.gpu_counts, sp):
            print(f"  {n:>3} GPUs  x{s:5.2f}   (paper x{paper[series.method][n]:5.2f})")

    # --- shape assertions -------------------------------------------------
    # Fig 4a: time monotonically decreases; error bars bracket the mean.
    for series in (report.dp, report.ep):
        means = series.mean()
        assert all(a > b for a, b in zip(means, means[1:]))
        for lo, m, hi in zip(series.minimum(), means, series.maximum()):
            assert lo <= m <= hi

    # Fig 4b: experiment parallel above data parallel, gap widens.
    gaps = dict(report.crossover_gap())
    assert all(g > 0 for n, g in gaps.items() if n > 1)
    assert gaps[32] == max(g for n, g in gaps.items())

    # Speed-ups within 20% of the paper's curve (3-run averages jitter).
    for series, target in ((report.dp, TABLE1_DP_SPEEDUPS),
                           (report.ep, TABLE1_EP_SPEEDUPS)):
        for n, s in zip(series.gpu_counts, series.speedups()):
            assert abs(s / target[n] - 1) < 0.20, (series.method, n)
