"""A minimal ``tf.data``-style stream and the seeded epoch shuffle.

The paper's input speed-up is *offline binarisation* (Section III-B1):
pre-process once, then every epoch only reads tensors.  What is left of
the tf.data idioms here is what that needs:

* :class:`Dataset` -- a lazy, restartable element stream with a serial
  ``map`` that times each stage into a :class:`PipelineStats` (the hook
  the Section III-B1 bottleneck profiler reads);
* :func:`shuffle_order` -- tf.data's reservoir ``shuffle`` as a pure
  index order, which :class:`repro.core.pipeline.MISPipeline` gathers
  batches by.

>>> ds = (Dataset.from_list(paths).with_stats(stats)
...         .map(decode, stage="nifti_decode")
...         .map(transform, stage="transform"))
>>> for example in ds: ...
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["Dataset", "PipelineStats", "shuffle_order"]


class PipelineStats:
    """Accumulated per-stage wall-clock seconds and element counts.

    When built with a telemetry hub every ``add`` is mirrored into the
    hub as a `pipeline_stage_*` metric sample plus a completed span, so
    the §III-B1 stage profile shows up in the Prometheus export and the
    merged Chrome trace.  The default hub is the process-wide one
    (usually the branch-free null sink), so un-instrumented callers pay
    one no-op call per element.
    """

    def __init__(self, telemetry=None):
        self.seconds: dict[str, float] = defaultdict(float)
        self.elements: dict[str, int] = defaultdict(int)
        if telemetry is None:
            from ..telemetry import get_hub

            telemetry = get_hub()
        self.telemetry = telemetry

    def add(self, stage: str, seconds: float, elements: int = 1) -> None:
        self.seconds[stage] += seconds
        self.elements[stage] += elements
        self.telemetry.on_stage(stage, seconds, elements)


class Dataset:
    """Lazy, restartable element stream; each ``iter()`` restarts it."""

    def __init__(self, source: Callable[[], Iterator], stats: PipelineStats | None = None):
        self._source = source
        self.stats = stats

    @classmethod
    def from_list(cls, items: list, stats: PipelineStats | None = None) -> "Dataset":
        items = list(items)
        return cls(lambda: iter(items), stats)

    @classmethod
    def from_generator(
        cls, factory: Callable[[], Iterable], stats: PipelineStats | None = None
    ) -> "Dataset":
        """``factory`` is called at every iteration to restart the stream."""
        return cls(lambda: iter(factory()), stats)

    def with_stats(self, stats: PipelineStats) -> "Dataset":
        self.stats = stats
        return self

    def __iter__(self) -> Iterator:
        return self._source()

    def map(self, fn: Callable, stage: str = "map") -> "Dataset":
        """Apply ``fn`` to every element, timing it as ``stage``."""
        def gen():
            for item in self._source():
                t0 = time.perf_counter()
                out = fn(item)
                if self.stats is not None:
                    self.stats.add(stage, time.perf_counter() - t0)
                yield out
        return Dataset(gen, self.stats)


def shuffle_order(n: int, buffer_size: int, seed: int) -> np.ndarray:
    """Indices ``0..n-1`` in the order a seeded reservoir shuffle emits them.

    tf.data semantics: the buffer holds ``buffer_size`` elements and
    each draw is uniform within it, so this is not a global permutation.
    """
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    rng = np.random.default_rng(seed)
    buf: list[int] = []
    order: list[int] = []

    def emit():
        j = int(rng.integers(len(buf)))
        buf[j], buf[-1] = buf[-1], buf[j]
        order.append(buf.pop())

    for i in range(n):
        buf.append(i)
        if len(buf) >= buffer_size:
            emit()
    while buf:
        emit()
    return np.asarray(order, dtype=np.int64)
