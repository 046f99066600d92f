"""``repro.core`` -- the paper's contribution: distributed MIS training.

Configuration spaces (:mod:`~repro.core.config`), the Fig 1 pipeline
(:mod:`~repro.core.pipeline`), the two distribution methods executed at
laptop scale (one driver, :mod:`~repro.core.experiment_parallel`, behind
:func:`~repro.core.search.run_search`), checkpoints, inference, run
tracking and the pipeline profiler (:mod:`~repro.core.profiling`).

Importing it loads no simulator module.  ``core``'s simulator modules
are imported by name: :mod:`~repro.core.simulated`,
:mod:`~repro.core.results`, :mod:`~repro.core.report` and
:mod:`~repro.core.runner` (the ``DistMISRunner`` facade).
"""

from . import experiment_parallel
from .checkpoint import CheckpointManager, load_checkpoint, save_checkpoint
from .tracking import RunTracker, TrialRecord, resume_search
from .inference import (
    InferenceResult,
    chunk_bounds,
    full_volume_inference,
    sliding_window_inference,
    sliding_window_spec,
    stitch_chunks,
    train_on_patches,
)
from .config import (
    DEFAULT_SPACE,
    ExperimentSettings,
    HyperparameterSpace,
    build_loss,
    build_model,
    build_optimizer,
)
from .experiment_parallel import SearchResult
from .pipeline import EpochRecord, MISPipeline, TrialOutcome, train_trial
from .profiling import PipelineProfile, profile_online_vs_offline

__all__ = [
    "HyperparameterSpace",
    "ExperimentSettings",
    "DEFAULT_SPACE",
    "build_model",
    "build_loss",
    "build_optimizer",
    "MISPipeline",
    "EpochRecord",
    "TrialOutcome",
    "train_trial",
    "SearchResult",
    "experiment_parallel",
    "PipelineProfile",
    "profile_online_vs_offline",
    "CheckpointManager",
    "save_checkpoint",
    "load_checkpoint",
    "InferenceResult",
    "chunk_bounds",
    "full_volume_inference",
    "sliding_window_inference",
    "sliding_window_spec",
    "stitch_chunks",
    "train_on_patches",
    "RunTracker",
    "TrialRecord",
    "resume_search",
]
