"""Data-parallel distribution of the hyper-parameter search (method 1).

The paper's first architecture (Fig 1, top): experiments run one after
another, each training on *all* available GPUs with batch sharding and
gradient all-reduce.  Section III-B2's three cases decide the machinery:

* ``n == 1`` -- plain sequential training;
* ``1 < n <= M`` -- Distributed TensorFlow ``MirroredStrategy`` inside
  one node;
* ``n > M`` -- Ray cluster + Ray SGD across nodes.

:func:`run_search_inprocess` really trains every configuration with
``num_gpus`` *virtual* replicas (exact semantics, laptop scale).  The
same search priced at paper scale is
:func:`repro.core.simulated.simulate_data_parallel_search`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline, TrialOutcome, train_trial

__all__ = ["DataParallelSearchResult", "run_search_inprocess"]


@dataclass
class DataParallelSearchResult:
    num_gpus: int
    outcomes: list[TrialOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def best(self, key: str = "val_dice") -> TrialOutcome:
        if not self.outcomes:
            raise ValueError("empty search result")
        return max(self.outcomes, key=lambda o: getattr(o, key))


def run_search_inprocess(
    space: HyperparameterSpace,
    settings: ExperimentSettings,
    num_gpus: int,
    pipeline: MISPipeline | None = None,
    telemetry=None,
) -> DataParallelSearchResult:
    """Execute the search for real: every config trains sequentially on
    ``num_gpus`` virtual replicas."""
    import time

    if telemetry is None:
        from ..telemetry import get_hub

        telemetry = get_hub()
    pipeline = pipeline or MISPipeline(settings, telemetry=telemetry)
    m_trials = telemetry.metrics.counter(
        "search_trials_total", "in-process trials trained", ("method",))
    result = DataParallelSearchResult(num_gpus=num_gpus)
    t0 = time.perf_counter()
    for idx, config in enumerate(space):
        with telemetry.tracer.span(f"trial_{idx:04d}", category="trial",
                                   method="data_parallel",
                                   **{k: str(v) for k, v in config.items()}):
            outcome = train_trial(config, settings, pipeline,
                                  num_replicas=num_gpus,
                                  telemetry=telemetry)
        m_trials.labels(method="data_parallel").inc()
        result.outcomes.append(outcome)
    result.elapsed_seconds = time.perf_counter() - t0
    return result
