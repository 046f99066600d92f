"""Hyper-parameter search algorithms.

The paper's search space is "the cross-product of the different values
for each option in the configuration" (Section III-B2), i.e. grid
search; random search and a TPE-lite sampler are provided as the
standard alternatives Ray Tune would offer.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

__all__ = ["SearchAlgorithm", "GridSearch", "RandomSearch", "TPELite"]


class SearchAlgorithm:
    """Produces trial configurations; may consume results to adapt."""

    def configurations(self) -> Iterator[dict]:
        raise NotImplementedError

    def observe(self, config: dict, score: float) -> None:
        """Feedback hook (no-op for non-adaptive algorithms)."""


class GridSearch(SearchAlgorithm):
    """Exhaustive cross-product of a ``{name: [values...]}`` space.

    The paper's search space (Section III-B2), so ``repro.core`` exports
    it as :class:`~repro.core.HyperparameterSpace`: iterating yields the
    config dicts in ``itertools.product`` order.
    """

    def __init__(self, axes: dict[str, list]):
        if not axes:
            raise ValueError("search space is empty")
        for k, v in axes.items():
            if not isinstance(v, (list, tuple)) or len(v) == 0:
                raise ValueError(f"grid axis {k!r} must be a non-empty list")
        self.axes = {k: list(v) for k, v in axes.items()}

    def __len__(self) -> int:
        return math.prod(len(v) for v in self.axes.values())

    def __iter__(self) -> Iterator[dict]:
        keys = list(self.axes)
        for combo in itertools.product(*(self.axes[k] for k in keys)):
            yield dict(zip(keys, combo))

    def configurations(self) -> list[dict]:
        return list(self)


class RandomSearch(SearchAlgorithm):
    """Independent draws from per-parameter samplers.

    Each space entry is either a list (uniform choice) or a callable
    ``rng -> value``.
    """

    def __init__(self, space: dict, num_samples: int, seed: int | None = 0):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.space = dict(space)
        self.num_samples = num_samples
        self.seed = seed

    def __len__(self) -> int:
        return self.num_samples

    def _draw(self, sampler, rng: np.random.Generator):
        if callable(sampler):
            return sampler(rng)
        return sampler[int(rng.integers(len(sampler)))]

    def configurations(self) -> Iterator[dict]:
        rng = np.random.default_rng(self.seed)
        for _ in range(self.num_samples):
            yield {k: self._draw(v, rng) for k, v in self.space.items()}


class TPELite(SearchAlgorithm):
    """A minimal Tree-of-Parzen-Estimators-flavoured adaptive sampler.

    Works over discrete axes only: after ``startup_trials`` random
    draws, it splits observed configs into good/bad halves by score and
    samples each axis value proportionally to
    ``(count_good + 1) / (count_bad + 1)`` -- the TPE density-ratio idea
    reduced to categorical axes.  Not a claim of the paper; included as
    the natural "what Ray Tune users would reach for next" extension.
    """

    def __init__(
        self,
        space: dict[str, list],
        num_samples: int,
        mode: str = "max",
        startup_trials: int = 5,
        seed: int | None = 0,
    ):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.space = {k: list(v) for k, v in space.items()}
        self.num_samples = num_samples
        self.mode = mode
        self.startup_trials = startup_trials
        self.rng = np.random.default_rng(seed)
        self.history: list[tuple[dict, float]] = []

    def __len__(self) -> int:
        return self.num_samples

    def observe(self, config: dict, score: float) -> None:
        self.history.append((dict(config), float(score)))

    def _sample_axis(self, name: str) -> object:
        values = self.space[name]
        if len(self.history) < self.startup_trials:
            return values[int(self.rng.integers(len(values)))]
        ordered = sorted(
            self.history, key=lambda t: t[1], reverse=(self.mode == "max")
        )
        split = max(1, len(ordered) // 2)
        good = ordered[:split]
        bad = ordered[split:]
        weights = []
        for v in values:
            g = sum(1 for c, _ in good if c.get(name) == v)
            b = sum(1 for c, _ in bad if c.get(name) == v)
            weights.append((g + 1.0) / (b + 1.0))
        w = np.asarray(weights)
        w = w / w.sum()
        return values[int(self.rng.choice(len(values), p=w))]

    def configurations(self) -> Iterator[dict]:
        for _ in range(self.num_samples):
            yield {k: self._sample_axis(k) for k in self.space}
