"""Calibration of the cost model against the paper's Table I.

The cost model has eight non-physical constants (sustained GPU
efficiency, straggler sigma, framework overheads, startup costs).
The 14 Table I cells identify three; :func:`fit_to_table1` fits them
by bounded Levenberg-Marquardt on the log-ratios of modelled vs
reported elapsed times and holds the other five at 0.  The result is
frozen as :data:`MARENOSTRUM_CTE_PROFILE` and used by every benchmark.

EXPERIMENTS.md records the per-cell residuals.  The point of the
exercise is *not* to re-measure V100 step times -- it is that with one
consistent parameter set, both methods' scaling curves (and the gap
between them) emerge from the model's structure: batch quantisation,
max-of-n stragglers, hierarchical all-reduce, and trial-placement
makespans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModelParams, StepCostModel
from .speedup import (
    PAPER_GPU_COUNTS,
    data_parallel_search_time,
    experiment_parallel_search_time,
    paper_search_grid,
)

__all__ = [
    "TABLE1_DATA_PARALLEL_S",
    "TABLE1_EXPERIMENT_PARALLEL_S",
    "TABLE1_DP_SPEEDUPS",
    "TABLE1_EP_SPEEDUPS",
    "CalibrationResult",
    "fit_to_table1",
    "MARENOSTRUM_CTE_PROFILE",
    "calibrated_model",
]

# Table I, elapsed times converted to seconds.
TABLE1_DATA_PARALLEL_S = {
    1: 159482,   # 44:18:02
    2: 83368,    # 23:09:28
    4: 54575,    # 15:09:35
    8: 27672,    # 7:41:12
    12: 21599,   # 5:59:59
    16: 16010,   # 4:26:50
    32: 12104,   # 3:21:44
}
TABLE1_EXPERIMENT_PARALLEL_S = {
    1: 159619,   # 44:20:19
    2: 80679,    # 22:24:39
    4: 41540,    # 11:32:20
    8: 25397,    # 7:03:17
    12: 20122,   # 5:35:22
    16: 15114,   # 4:11:54
    32: 10506,   # 2:55:06
}
TABLE1_DP_SPEEDUPS = {1: 1.00, 2: 1.91, 4: 2.92, 8: 5.76, 12: 7.38,
                      16: 9.96, 32: 13.18}
TABLE1_EP_SPEEDUPS = {1: 1.00, 2: 1.98, 4: 3.84, 8: 6.28, 12: 7.93,
                      16: 10.56, 32: 15.19}

# The constants Table I identifies: (name, lower, upper, start).
_FITTED = (
    ("gpu_efficiency", 0.2, 0.95, 0.5),
    ("straggler_sigma", 0.0, 0.5, 0.1),
    ("startup_per_node_s", 0.0, 900.0, 60.0),
)
# Held at 0: see the caveats above MARENOSTRUM_CTE_PROFILE.
_HELD_AT_ZERO = ("mirrored_overhead_s", "internode_overhead_s",
                 "epoch_fixed_s", "startup_base_s", "tune_trial_overhead_s")


@dataclass(frozen=True)
class CalibrationResult:
    params: CostModelParams
    residuals: dict[str, float]      # per-cell log-ratio model/paper
    max_abs_pct_error: float
    mean_abs_pct_error: float


def _fitted_params(x: np.ndarray) -> CostModelParams:
    names = [name for name, *_ in _FITTED]
    return CostModelParams(**dict.fromkeys(_HELD_AT_ZERO, 0.0),
                           **dict(zip(names, map(float, x))))


def _residuals(x: np.ndarray) -> np.ndarray:
    return np.array(list(summarize(_fitted_params(x)).residuals.values()))


def fit_to_table1() -> CalibrationResult:
    """Fit the three constants Table I identifies.

    Levenberg-Marquardt with a forward-difference Jacobian, each step
    clipped to the bounds; stops once a step lowers the sum of squared
    log-ratios by no more than 1e-8 of it (about five iterations).
    """
    _, lo, hi, start = (np.array(col) for col in zip(*_FITTED))
    x = start.astype(float)
    r = _residuals(x)
    damping = 1e-3
    while True:
        jac = np.empty((r.size, x.size))
        for i in range(x.size):
            h = np.sqrt(np.finfo(float).eps) * max(abs(x[i]), 1.0)
            if x[i] + h > hi[i]:
                h = -h
            jac[:, i] = (_residuals(x + h * np.eye(x.size)[i]) - r) / h
        a, g = jac.T @ jac, jac.T @ r
        # Raise the damping until a step does not raise the cost; as it
        # grows the step shrinks to nothing, which always qualifies.
        while True:
            step = np.linalg.solve(a + damping * np.diag(np.diag(a)), -g)
            x_new = np.clip(x + step, lo, hi)
            r_new = _residuals(x_new)
            if r_new @ r_new <= r @ r:
                break
            damping *= 10
        converged = r @ r - r_new @ r_new <= 1e-8 * (r @ r)
        x, r, damping = x_new, r_new, damping / 10
        if converged:
            return summarize(_fitted_params(x))


def summarize(params: CostModelParams) -> CalibrationResult:
    """Per-cell residual report for a parameter set."""
    model = StepCostModel(params=params)
    grid = paper_search_grid()
    residuals: dict[str, float] = {}
    for n in PAPER_GPU_COUNTS:
        dp = data_parallel_search_time(model, grid, n)
        ep = experiment_parallel_search_time(model, grid, n)
        residuals[f"dp_{n}"] = float(np.log(dp / TABLE1_DATA_PARALLEL_S[n]))
        residuals[f"ep_{n}"] = float(
            np.log(ep / TABLE1_EXPERIMENT_PARALLEL_S[n])
        )
    pct = {k: abs(np.expm1(v)) * 100 for k, v in residuals.items()}
    return CalibrationResult(
        params=params,
        residuals=residuals,
        max_abs_pct_error=float(max(pct.values())),
        mean_abs_pct_error=float(np.mean(list(pct.values()))),
    )


# Frozen result of fit_to_table1() -- regenerate with `distmis
# calibrate`; the calibration tests assert the fit reproduces it and it
# still matches Table I within tolerance (max cell error 8.4%, mean 3.3%).
#
# Two caveats the fit makes explicit:
# * ``gpu_efficiency`` is an *effective* throughput constant: the FLOPs
#   model counts convolution multiply-adds only, so BN / ReLU / pooling
#   / data movement costs are absorbed here -- 0.94 of peak under
#   conv-only counting corresponds to a realistic ~0.6 of peak under
#   full op counting.
# * the fit holds the per-step framework overheads and fixed startups
#   at 0: Table I alone cannot separate them from the straggler term,
#   which lands at sigma = 0.25 (heavy jitter, consistent with a shared
#   GPFS-backed cluster).  They remain in the model for the ablation
#   sweeps (E9).
MARENOSTRUM_CTE_PROFILE = CostModelParams(
    gpu_efficiency=0.937787,
    straggler_sigma=0.252028,
    mirrored_overhead_s=0.0,
    internode_overhead_s=0.0,
    epoch_fixed_s=0.0,
    startup_base_s=0.0,
    startup_per_node_s=18.1123,
    tune_trial_overhead_s=0.0,
)


def calibrated_model() -> StepCostModel:
    """The cost model under the frozen MareNostrum-CTE calibration."""
    return StepCostModel(params=MARENOSTRUM_CTE_PROFILE)

