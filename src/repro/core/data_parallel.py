"""Data-parallel distribution of the hyper-parameter search (method 1).

The paper's first architecture (Fig 1, top): experiments run one after
another, each training on *all* available GPUs with batch sharding and
gradient all-reduce.  Section III-B2's three cases decide the machinery:

* ``n == 1`` -- plain sequential training;
* ``1 < n <= M`` -- Distributed TensorFlow ``MirroredStrategy`` inside
  one node;
* ``n > M`` -- Ray cluster + Ray SGD across nodes.

Two backends share this module:

* :func:`run_search_inprocess` really trains every configuration with
  ``num_gpus`` *virtual* replicas (exact semantics, laptop scale);
* :func:`simulate_search` prices the same search at paper scale with
  the calibrated cost model, emitting a timeline of per-trial spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.trace import Timeline
from ..perf.costs import StepCostModel, TrialConfig
from ..perf.speedup import trial_durations
from .config import ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline, TrialOutcome, train_trial

__all__ = ["DataParallelSearchResult", "run_search_inprocess",
           "simulate_search", "placement_case"]


def placement_case(num_gpus: int, gpus_per_node: int = 4) -> str:
    """The Section III-B2 trichotomy (string tag used in logs/traces)."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if num_gpus == 1:
        return "sequential"
    if num_gpus <= gpus_per_node:
        return "mirrored"
    return "ray_sgd"


@dataclass
class DataParallelSearchResult:
    num_gpus: int
    outcomes: list[TrialOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    timeline: Timeline | None = None

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


def simulate_search(
    trials: list[TrialConfig],
    model: StepCostModel,
    num_gpus: int,
    seed: int | None = None,
) -> tuple[float, Timeline]:
    """Paper-scale simulation: trials run back-to-back, each occupying
    the first ``num_gpus`` GPUs packed node by node; returns (elapsed
    seconds, timeline).  The elapsed time is
    :func:`repro.perf.speedup.data_parallel_search_time`; the timeline
    adds one span per trial on every GPU, tagged with the placement
    case."""
    case = placement_case(num_gpus, model.cluster.node.num_gpus)
    devices = model.cluster.devices(num_gpus)
    timeline = Timeline()
    end = 0.0
    for idx, (cfg, duration) in enumerate(
            zip(trials, trial_durations(model, trials, num_gpus, seed))):
        start, end = end, end + duration
        for dev in devices:
            timeline.record(
                name=f"trial_{idx:02d}", start=start, end=end,
                resource=str(dev), category="train",
                case=case, loss=cfg.loss, lr=cfg.learning_rate,
                base_filters=cfg.base_filters,
            )
    return end, timeline
