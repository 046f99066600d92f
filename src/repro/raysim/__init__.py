"""``repro.raysim`` -- a Ray-like runtime.

Stands in for the two parts of Ray 1.4.1 the paper uses (Ray SGD and
Ray Tune): synchronous data-parallel SGD with exact ring all-reduce and
optional sync-BatchNorm (:mod:`~repro.raysim.sgd`), a Tune-like trial
runner with FIFO/ASHA scheduling (:mod:`~repro.raysim.tune`) and
grid/random/TPE-lite search (:mod:`~repro.raysim.search`).

All of it is executed code; the greedy placement that prices
paper-scale searches is simulator code in :mod:`repro.perf.speedup`.
"""

from ..fault_tolerance import FaultInjector, InjectedFault
from .search import GridSearch, RandomSearch, SearchAlgorithm, TPELite
from .sgd import DataParallelTrainer, SyncGroup
from .tune import (
    ASHAScheduler,
    CheckpointHandle,
    ExperimentAnalysis,
    FIFOScheduler,
    HyperbandScheduler,
    Reporter,
    RetryPolicy,
    StopTrial,
    Trial,
    TrialScheduler,
    TrialStatus,
    tune_run,
)

__all__ = [
    "DataParallelTrainer",
    "SyncGroup",
    "GridSearch",
    "RandomSearch",
    "TPELite",
    "SearchAlgorithm",
    "Trial",
    "TrialStatus",
    "TrialScheduler",
    "FIFOScheduler",
    "ASHAScheduler",
    "HyperbandScheduler",
    "Reporter",
    "ExperimentAnalysis",
    "tune_run",
    "StopTrial",
    "RetryPolicy",
    "CheckpointHandle",
    "FaultInjector",
    "InjectedFault",
]
