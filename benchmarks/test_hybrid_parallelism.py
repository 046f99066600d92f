"""E14 -- hybrid parallelism: multi-GPU trials under Tune placement.

Beyond the paper's two extremes.  At 32 GPUs the paper's
experiment-parallel method leaves 12 of 32 GPUs idle (20 trials, one
GPU each) and its makespan is pinned to the longest trial; the
data-parallel method keeps all GPUs busy but pays synchronisation on
every step.  Giving each trial an intermediate ``g`` GPUs interpolates
-- and the sweep shows a strict interior optimum, i.e. the *best*
configuration of the paper's own search is one it never ran.
"""

from conftest import once

from repro.core.simulated import best_gpus_per_trial
from repro.perf import calibrated_model, format_hms, paper_search_grid

GPUS = 32


def _sweep():
    return best_gpus_per_trial(paper_search_grid(), calibrated_model(), GPUS)


def test_hybrid_sweep(benchmark):
    results = once(benchmark, _sweep)

    print(f"\n=== E14: hybrid parallelism at {GPUS} GPUs "
          "(20-trial search) ===")
    print(f"{'GPUs/trial':>10} {'slots':>6} {'elapsed':>9} {'GPU util':>9}")
    for g, r in sorted(results.items()):
        marker = ""
        if g == 1:
            marker = "  <- paper's experiment parallel"
        elif g == GPUS:
            marker = "  <- paper's data parallel"
        print(f"{g:>10} {r.concurrent_slots:>6} "
              f"{format_hms(r.elapsed_seconds):>9} "
              f"{r.mean_gpu_utilization:>8.0%}{marker}")

    ep = results[1].elapsed_seconds
    dp = results[GPUS].elapsed_seconds
    best_g = min(results, key=lambda g: results[g].elapsed_seconds)
    best = results[best_g].elapsed_seconds
    print(f"\nbest: {best_g} GPUs/trial at {format_hms(best)} "
          f"({100 * (1 - best / ep):.0f}% under experiment parallel, "
          f"{100 * (1 - best / dp):.0f}% under data parallel)")

    # The extremes recover the paper's two methods' ordering...
    assert ep < dp
    # ...and an interior configuration beats both.
    assert 1 < best_g < GPUS
    assert best < ep < dp
    # Utilisation is monotone in g (bigger trials, denser packing)...
    utils = [results[g].mean_gpu_utilization for g in sorted(results)]
    assert all(a <= b + 1e-9 for a, b in zip(utils, utils[1:]))
    # ...but elapsed time is NOT: utilisation is the wrong objective.
    assert results[GPUS].mean_gpu_utilization == max(utils)
    assert results[GPUS].elapsed_seconds > best
