"""``repro.perf`` -- the calibrated performance model.

Analytic cost accounting for 3D U-Net training at cluster scale
(:mod:`~repro.perf.costs`), straggler order statistics
(:mod:`~repro.perf.straggler`), Ray Tune's greedy trial placement and
the search-level elapsed-time / speed-up tables built on it
(:mod:`~repro.perf.speedup`), the Table I calibration
(:mod:`~repro.perf.calibration`) and the schema, naming and host
metadata of the committed ``BENCH_*.json`` records
(:mod:`~repro.perf.regression`); regressions are gated by ``perfbench/``
against ``BENCHMARK.json``.

Simulator side: training and serving never load this package; the
serving benchmark imports :mod:`~repro.perf.regression` at the call.
"""

from .calibration import (
    MARENOSTRUM_CTE_PROFILE,
    TABLE1_DATA_PARALLEL_S,
    TABLE1_DP_SPEEDUPS,
    TABLE1_EP_SPEEDUPS,
    TABLE1_EXPERIMENT_PARALLEL_S,
    CalibrationResult,
    calibrated_model,
    fit_to_table1,
    summarize,
)
from .deployment import (
    GIB,
    PAPER_DATASET_BYTES,
    DatasetFootprint,
    DeploymentPlan,
    ServingCapacityPlan,
    ServingWorkload,
    plan_deployment,
    plan_serving_capacity,
    staging_time,
)
from .costs import (
    PAPER_EPOCHS,
    PAPER_SPATIAL,
    PAPER_TRAIN_SAMPLES,
    PAPER_VAL_SAMPLES,
    CostModelParams,
    StepCostModel,
    TrialConfig,
    conv3d_flops,
    unet3d_forward_flops,
    unet3d_param_count,
)
from .speedup import (
    PAPER_GPU_COUNTS,
    PlacementResult,
    SpeedupRow,
    SpeedupTable,
    data_parallel_search_time,
    experiment_parallel_placement,
    experiment_parallel_search_time,
    fifo_schedule,
    format_hms,
    lpt_schedule,
    makespan_lower_bound,
    paper_search_grid,
    trial_durations,
)
from .regression import (
    bench_output_path,
    host_metadata,
    is_smoke_env,
    validate_record,
)
from .straggler import expected_max_factor, sample_max_factor
from .trace_model import TrialBreakdown, epoch_breakdown

__all__ = [
    "conv3d_flops",
    "unet3d_forward_flops",
    "unet3d_param_count",
    "TrialConfig",
    "CostModelParams",
    "StepCostModel",
    "PAPER_TRAIN_SAMPLES",
    "PAPER_VAL_SAMPLES",
    "PAPER_EPOCHS",
    "PAPER_SPATIAL",
    "PAPER_GPU_COUNTS",
    "paper_search_grid",
    "trial_durations",
    "PlacementResult",
    "fifo_schedule",
    "lpt_schedule",
    "makespan_lower_bound",
    "data_parallel_search_time",
    "experiment_parallel_placement",
    "experiment_parallel_search_time",
    "SpeedupRow",
    "SpeedupTable",
    "format_hms",
    "expected_max_factor",
    "sample_max_factor",
    "fit_to_table1",
    "summarize",
    "CalibrationResult",
    "calibrated_model",
    "MARENOSTRUM_CTE_PROFILE",
    "TABLE1_DATA_PARALLEL_S",
    "TABLE1_EXPERIMENT_PARALLEL_S",
    "TABLE1_DP_SPEEDUPS",
    "TABLE1_EP_SPEEDUPS",
    "GIB",
    "DatasetFootprint",
    "DeploymentPlan",
    "staging_time",
    "plan_deployment",
    "PAPER_DATASET_BYTES",
    "ServingWorkload",
    "ServingCapacityPlan",
    "plan_serving_capacity",
    "TrialBreakdown",
    "epoch_breakdown",
    "bench_output_path",
    "host_metadata",
    "is_smoke_env",
    "validate_record",
]
