"""Input-pipeline profiling (the Section III-B1 experiment).

The paper's TensorBoard-profiler analysis showed data loading and
binarisation to be the pre-processing bottleneck, motivating *offline*
binarisation: transform once before training instead of at every epoch.
:func:`profile_online_vs_offline` reproduces that analysis on the input
pipeline that trains, :class:`~repro.core.pipeline.MISPipeline`, in its
two input modes:

* *online* (``input_mode="nifti"``): every epoch decodes each subject's
  NIfTI files and re-runs the transform (crop -> standardise ->
  binarise);
* *offline* (``"records"``): the transform runs once into record files,
  which are read once into stacked arrays; an epoch is a gather.

The stage rows are the ``pipeline_stage_*`` counters the pipeline
records on a private telemetry hub, read by
:meth:`repro.telemetry.ProfileData.from_samples` -- the reader
``distmis profile RUN_DIR`` uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .config import ExperimentSettings
from .pipeline import MISPipeline

__all__ = ["PipelineProfile", "profile_online_vs_offline"]

_SPLITS = ("train", "val", "test")
# Stages paid once per pipeline, not per epoch: not rows of the table.
_ONE_OFF_STAGES = ("nifti_write.", "binarize.")


@dataclass
class PipelineProfile:
    """E5's four headline numbers plus its stage rows.

    Each row is ``(stage, seconds, elements)``, slowest first: the
    stages every online epoch pays, summed over the ``epochs`` profiled
    epochs.
    """

    online_epoch_s: float
    offline_epoch_s: float
    binarize_once_s: float
    epochs_to_amortize: float
    stages: list[tuple[str, float, int]] = field(default_factory=list)
    epochs: int = 1

    def bottleneck(self) -> str:
        """The stage the online epochs spend most time in."""
        if not self.stages:
            raise ValueError("no stages profiled")
        return self.stages[0][0]

    def speedup_per_epoch(self) -> float:
        if self.offline_epoch_s <= 0:
            return float("inf")
        return self.online_epoch_s / self.offline_epoch_s

    def render(self) -> str:
        lines = ["pipeline stage profile "
                 f"(totals over {self.epochs} epochs):"]
        for stage, seconds, elements in self.stages:
            lines.append(
                f"  {stage:<24} {seconds*1e3:9.1f} ms total  "
                f"({seconds*1e3/max(1, elements):7.2f} ms/elem, "
                f"n={elements})"
            )
        lines.append(
            f"online epoch input cost : {self.online_epoch_s*1e3:9.1f} ms"
        )
        lines.append(
            f"offline epoch input cost: {self.offline_epoch_s*1e3:9.1f} ms"
        )
        lines.append(
            f"one-off binarisation    : {self.binarize_once_s*1e3:9.1f} ms"
            f"  (amortised after {self.epochs_to_amortize:.1f} epochs)"
        )
        lines.append(f"per-epoch input speed-up: x{self.speedup_per_epoch():.1f}")
        return "\n".join(lines)


def _epoch_seconds(pipeline: MISPipeline, epochs: int) -> float:
    """Mean wall-clock of one pass over every split, element by element."""
    t0 = time.perf_counter()
    for _ in range(epochs):
        for split in _SPLITS:
            for _ in pipeline.dataset(split, 1):
                pass
    return (time.perf_counter() - t0) / epochs


def profile_online_vs_offline(
    num_subjects: int = 6,
    volume_shape: tuple[int, int, int] = (48, 48, 32),
    epochs: int = 3,
    workdir: str | Path | None = None,
    seed: int = 0,
) -> PipelineProfile:
    """Measure the two input modes of :class:`MISPipeline` on real files.

    *Online*: the cohort is written as NIfTI once (untimed); every epoch
    then decodes and transforms each subject again.  *Offline*: the
    one-off cost is :meth:`MISPipeline.split_arrays` -- generating and
    binarising the synthetic cohort, then one record read -- and every
    epoch gathers from the stacked arrays.  Files go to ``workdir``
    (default: temporary directories removed with the pipelines).
    """
    from ..telemetry import ProfileData, TelemetryHub

    settings = ExperimentSettings(num_subjects=num_subjects,
                                  volume_shape=tuple(volume_shape),
                                  epochs=epochs, data_seed=seed)
    hub = TelemetryHub()

    online = MISPipeline(settings, record_dir=workdir, telemetry=hub,
                         input_mode="nifti")
    online.materialize_nifti()
    online_epoch_s = _epoch_seconds(online, epochs)

    offline = MISPipeline(settings, record_dir=workdir, telemetry=hub)
    t0 = time.perf_counter()
    offline.split_arrays()
    binarize_once_s = time.perf_counter() - t0
    offline_epoch_s = _epoch_seconds(offline, epochs)

    saved_per_epoch = online_epoch_s - offline_epoch_s
    data = ProfileData.from_samples(hub.metrics.samples())
    stages = sorted(
        ((stage, seconds, data.stage_elements.get(stage, 0))
         for stage, seconds in data.stage_seconds.items()
         if not stage.startswith(_ONE_OFF_STAGES)),
        key=lambda row: -row[1])
    return PipelineProfile(
        online_epoch_s=online_epoch_s,
        offline_epoch_s=offline_epoch_s,
        binarize_once_s=binarize_once_s,
        epochs_to_amortize=(binarize_once_s / saved_per_epoch
                            if saved_per_epoch > 0 else float("inf")),
        stages=stages,
        epochs=epochs,
    )
