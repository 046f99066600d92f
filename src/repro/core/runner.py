"""``DistMISRunner`` -- the public facade of the reproduction.

One object that exposes the paper's whole workflow:

* ``run_inprocess(method, num_gpus)`` -- really trains the search at
  laptop scale with exact distribution semantics (claims C2/C4), by
  way of the executed side's :func:`repro.core.search.run_search`;
* ``simulate(method, num_gpus)`` -- prices the search at paper scale on
  the calibrated MareNostrum model (claims C1/C3);
* ``simulate_comparison(...)`` -- the full Table I / Fig 4 sweep with
  repeated jittered runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.failures import FailureModel, RetryRecord
from ..cluster.trace import Timeline
from ..fault_tolerance import RetryPolicy
from ..perf.calibration import calibrated_model
from ..perf.costs import StepCostModel, TrialConfig
from ..perf.speedup import PAPER_GPU_COUNTS, paper_search_grid
from ..telemetry import get_hub
from .config import DEFAULT_SPACE, ExperimentSettings, HyperparameterSpace
from .pipeline import MISPipeline
from .results import ComparisonReport, MethodSeries
from .search import METHODS, check_method, run_search
from .simulated import (
    simulate_data_parallel_search,
    simulate_experiment_parallel_search,
    simulate_hybrid_search,
    simulate_search_with_failures,
)

__all__ = ["DistMISRunner", "SimulatedRun"]


@dataclass
class SimulatedRun:
    method: str
    num_gpus: int
    elapsed_seconds: float
    timeline: Timeline
    # populated only for runs priced under a failure model
    num_failures: int = 0
    wasted_seconds: float = 0.0
    num_abandoned: int = 0
    retries: list[RetryRecord] = field(default_factory=list)


class DistMISRunner:
    """Entry point mirroring the paper's published framework."""

    def __init__(
        self,
        space: HyperparameterSpace | None = None,
        settings: ExperimentSettings | None = None,
        cost_model: StepCostModel | None = None,
        sim_trials: list[TrialConfig] | None = None,
        telemetry=None,
    ):
        self.space = space or DEFAULT_SPACE
        self.settings = settings or ExperimentSettings()
        self.cost_model = cost_model or calibrated_model()
        self.sim_trials = sim_trials or paper_search_grid()
        # default: the process-wide hub (the null sink unless installed)
        self.telemetry = telemetry if telemetry is not None else get_hub()
        self._pipeline: MISPipeline | None = None

    # -- shared dataset pipeline -------------------------------------------
    @property
    def pipeline(self) -> MISPipeline:
        if self._pipeline is None:
            self._pipeline = MISPipeline(self.settings,
                                         telemetry=self.telemetry)
        return self._pipeline

    # -- in-process (functional) backend --------------------------------------
    def run_inprocess(self, method: str, num_gpus: int = 1,
                      executor: str = "serial",
                      max_workers: int | None = None,
                      progress=None):
        """Execute the search for real at the configured laptop scale
        (:func:`repro.core.search.run_search` on this runner's space,
        settings, shared pipeline and telemetry hub)."""
        return run_search(method, self.space, self.settings, num_gpus,
                          executor=executor, max_workers=max_workers,
                          progress=progress, pipeline=self.pipeline,
                          telemetry=self.telemetry)

    # -- simulated (paper-scale) backend ---------------------------------------
    def simulate(self, method: str, num_gpus: int,
                 seed: int | None = None,
                 gpus_per_trial: int | None = None,
                 failures: FailureModel | None = None,
                 retry_policy: RetryPolicy | None = None) -> SimulatedRun:
        """Price the full-scale search on the calibrated cluster model.

        ``method`` may also be ``"hybrid"`` (multi-GPU trials under Tune
        placement, see :mod:`repro.core.simulated`); ``gpus_per_trial``
        then selects the per-trial width (default: one node).  The run's
        simulated timeline is attached to the telemetry hub, so the
        exported Chrome trace merges simulated and real spans.

        ``failures`` (a :class:`FailureModel`) re-prices the
        experiment-parallel search under exponential GPU failures with
        per-epoch checkpoint granularity and the shared ``retry_policy``
        semantics; the run then also reports ``num_failures``,
        ``wasted_seconds``, ``num_abandoned`` and per-trial ``retries``,
        and the timeline shows every failed attempt.
        """
        if failures is not None:
            run = self._simulate_failures(num_gpus, failures, retry_policy,
                                          seed=seed, method=method)
        else:
            run = self._simulate_one(method, num_gpus, seed=seed,
                                     gpus_per_trial=gpus_per_trial)
        final = {
            "elapsed_seconds": run.elapsed_seconds,
            "mean_utilization": run.timeline.mean_utilization(),
        }
        if failures is not None:
            final.update(
                num_failures=run.num_failures,
                wasted_seconds=run.wasted_seconds,
                num_abandoned=run.num_abandoned,
            )
        self.telemetry.finalize_run(
            kind=f"simulate/{run.method}",
            config={"num_gpus": num_gpus, "gpus_per_trial": gpus_per_trial,
                    **({"mtbf_s": failures.mtbf_s,
                        "repair_s": failures.repair_s}
                       if failures is not None else {})},
            seed=seed,
            final_metrics=final,
        )
        return run

    def _simulate_failures(self, num_gpus: int, failures: FailureModel,
                           retry_policy: RetryPolicy | None,
                           seed: int | None = None,
                           method: str = "experiment_parallel") -> SimulatedRun:
        if method != "experiment_parallel":
            raise ValueError(
                "failure injection is modelled for the experiment-parallel "
                f"method (independent 1-GPU trials), not {method!r}"
            )
        hub = self.telemetry
        with hub.tracer.span("simulate[experiment_parallel+failures]",
                             category="run", num_gpus=num_gpus,
                             mtbf_s=failures.mtbf_s):
            elapsed, result = simulate_search_with_failures(
                self.sim_trials, self.cost_model, num_gpus, failures,
                retry_policy=retry_policy, seed=seed, telemetry=hub,
            )
        hub.attach_timeline(result.timeline)
        return SimulatedRun(
            method="experiment_parallel+failures", num_gpus=num_gpus,
            elapsed_seconds=elapsed, timeline=result.timeline,
            num_failures=result.num_failures,
            wasted_seconds=result.wasted_seconds,
            num_abandoned=result.num_abandoned,
            retries=result.retries,
        )

    def _simulate_one(self, method: str, num_gpus: int,
                      seed: int | None = None,
                      gpus_per_trial: int | None = None) -> SimulatedRun:
        if method != "hybrid":
            check_method(method)
        hub = self.telemetry
        args = (self.sim_trials, self.cost_model, num_gpus)
        with hub.tracer.span(f"simulate[{method}]", category="run",
                             num_gpus=num_gpus):
            if method == "hybrid":
                g = gpus_per_trial or min(
                    num_gpus, self.cost_model.cluster.node.num_gpus)
                method = f"hybrid[g={g}]"
                result, timeline = simulate_hybrid_search(
                    *args, g, seed=seed, telemetry=hub)
                elapsed = result.elapsed_seconds
            elif method == "experiment_parallel":
                elapsed, timeline = simulate_experiment_parallel_search(
                    *args, seed=seed, telemetry=hub)
            else:
                elapsed, timeline = simulate_data_parallel_search(
                    *args, seed=seed)
        hub.attach_timeline(timeline)
        hub.metrics.gauge(
            "sim_elapsed_seconds", "simulated search elapsed time",
            ("method",)).labels(method=method).set(elapsed)
        return SimulatedRun(method=method, num_gpus=num_gpus,
                            elapsed_seconds=elapsed, timeline=timeline)

    def simulate_comparison(
        self,
        gpu_counts: tuple[int, ...] = PAPER_GPU_COUNTS,
        num_runs: int = 3,
        base_seed: int = 0,
    ) -> ComparisonReport:
        """The Table I / Fig 4 experiment: both methods at every GPU
        count, ``num_runs`` jittered repetitions each (the paper ran
        every execution three times and reports the average)."""
        if num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        hub = self.telemetry
        series = {}
        with hub.tracer.span("simulate_comparison", category="run",
                             num_runs=num_runs):
            for method in METHODS:
                runs = []
                for n in gpu_counts:
                    runs.append(
                        [
                            self._simulate_one(
                                method, n, seed=base_seed + 17 * r + 1
                            ).elapsed_seconds
                            for r in range(num_runs)
                        ]
                    )
                series[method] = MethodSeries(
                    method=method, gpu_counts=list(gpu_counts), runs=runs
                )
        report = ComparisonReport(series["data_parallel"],
                                  series["experiment_parallel"])
        hub.finalize_run(
            kind="simulate_comparison",
            config={"gpu_counts": list(gpu_counts), "num_runs": num_runs},
            seed=base_seed,
            final_metrics={
                "data_parallel_mean_s": report.dp.mean(),
                "experiment_parallel_mean_s": report.ep.mean(),
            },
        )
        return report
