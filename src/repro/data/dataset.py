"""A minimal ``tf.data``-style stream and the seeded epoch shuffle.

The paper's input speed-up is *offline binarisation* (Section III-B1):
pre-process once, then every epoch only reads tensors.  What is left of
the tf.data idioms here is what that needs:

* :class:`Dataset` -- a lazy, restartable element stream, the epoch
  :meth:`repro.core.pipeline.MISPipeline.dataset` returns;
* :func:`shuffle_order` -- tf.data's reservoir ``shuffle`` as a pure
  index order, which :class:`repro.core.pipeline.MISPipeline` gathers
  batches by.

Stage timing is not done here: the pipeline records its stages on its
telemetry hub (``TelemetryHub.on_stage``), which is what the Section
III-B1 profiler reads.

>>> ds = Dataset.from_generator(lambda: (i * i for i in range(3)))
>>> list(ds), list(ds)
([0, 1, 4], [0, 1, 4])
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = ["Dataset", "shuffle_order"]


class Dataset:
    """Lazy, restartable element stream; each ``iter()`` restarts it."""

    def __init__(self, source: Callable[[], Iterator]):
        self._source = source

    @classmethod
    def from_generator(cls, factory: Callable[[], Iterable]) -> "Dataset":
        """``factory`` is called at every iteration to restart the stream."""
        return cls(lambda: iter(factory()))

    def __iter__(self) -> Iterator:
        return self._source()


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
