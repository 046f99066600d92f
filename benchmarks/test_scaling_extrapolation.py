"""E15 -- extrapolating past the paper's 32 GPUs (extension).

The paper stops at 32 of MareNostrum-CTE's 208 GPUs.  The calibrated
model prices the rest of the machine and the structure is stark:

* data parallelism *peaks* around 64 GPUs and then collapses -- with a
  global batch of 2n against 338 training volumes, epochs degenerate to
  a single quantisation-dominated step while the max-of-n barrier and
  52 nodes' startup keep growing;
* experiment parallelism saturates at ~x15: once every trial has a GPU,
  extra GPUs only idle (the longest trial is the floor);
* the hybrid configuration keeps scaling -- 16-GPU trials on the full
  machine reach ~x60.

These are model *predictions* (nothing past 32 GPUs was calibrated),
but they follow from the same accounting that reproduces Table I.
"""

from conftest import once

from repro.cluster.resources import marenostrum_cte
from repro.core.simulated import best_gpus_per_trial
from repro.perf import (
    StepCostModel,
    data_parallel_search_time,
    experiment_parallel_search_time,
    paper_search_grid,
)
from repro.perf.calibration import MARENOSTRUM_CTE_PROFILE

GPU_COUNTS = (32, 64, 128, 208)


def _sweep():
    model = StepCostModel(params=MARENOSTRUM_CTE_PROFILE,
                          cluster=marenostrum_cte(52))  # the full machine
    grid = paper_search_grid()
    dp1 = data_parallel_search_time(model, grid, 1)
    ep1 = experiment_parallel_search_time(model, grid, 1)
    curves = {}
    for n in GPU_COUNTS:
        curves[n] = (
            dp1 / data_parallel_search_time(model, grid, n),
            ep1 / experiment_parallel_search_time(model, grid, n),
        )
    hybrid = best_gpus_per_trial(grid, model, 208,
                                 candidates=(1, 2, 4, 8, 16, 32))
    hybrid_speedups = {
        g: ep1 / r.elapsed_seconds for g, r in hybrid.items()
    }
    return curves, hybrid_speedups


def test_scaling_beyond_the_paper(benchmark):
    curves, hybrid = once(benchmark, _sweep)

    print("\n=== E15: extrapolation to the full 208-GPU machine ===")
    print(f"{'#GPUs':>6} {'dp speed-up':>12} {'ep speed-up':>12}")
    for n, (dp, ep) in curves.items():
        print(f"{n:>6} {dp:>12.2f} {ep:>12.2f}")
    print("\nhybrid at 208 GPUs (speed-up vs 1 GPU):")
    for g, s in hybrid.items():
        print(f"  {g:>2} GPUs/trial -> x{s:.2f}")

    # data parallelism peaks then collapses
    dp_vals = [curves[n][0] for n in GPU_COUNTS]
    assert dp_vals[1] > dp_vals[0]          # still improving at 64
    assert dp_vals[3] < dp_vals[1] * 0.7    # collapsed by 208
    # experiment parallelism saturates near its makespan floor
    ep_vals = [curves[n][1] for n in GPU_COUNTS]
    assert max(ep_vals) - min(ep_vals) < 1.5
    # hybrid blows past both at full-machine scale
    best_hybrid = max(hybrid.values())
    assert best_hybrid > 3 * max(ep_vals)
    best_g = max(hybrid, key=hybrid.get)
    assert 4 <= best_g <= 32
