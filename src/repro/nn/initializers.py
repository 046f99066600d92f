"""Weight initializers.

The paper (Section III-A) uses a *truncated normal* kernel initializer for
every convolution layer; biases start at zero.

Every initializer takes an optional ``dtype``: an explicit value wins,
``None`` defers to the process compute-dtype policy
(:func:`repro.nn.dtypes.resolve_dtype`, ``float64`` unless opted into
``float32``).  Resolution happens at *call* time, and random draws are
always made in float64 then cast, so a float32 model is a bit-exact
down-cast of the float64 one from the same seed.
"""

from __future__ import annotations

import numpy as np

from .dtypes import resolve_dtype

__all__ = [
    "Initializer",
    "Zeros",
    "TruncatedNormal",
    "get_initializer",
]


class Initializer:
    """Base class: callable ``(shape, rng) -> ndarray``."""

    def __init__(self, dtype=None):
        self.dtype = dtype

    def _dtype(self) -> np.dtype:
        return resolve_dtype(self.dtype)

    def __call__(self, shape, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Zeros(Initializer):
    def __call__(self, shape, rng):
        return np.zeros(shape, dtype=self._dtype())


class TruncatedNormal(Initializer):
    """Normal draw re-sampled until within two standard deviations.

    Matches ``tf.keras.initializers.TruncatedNormal``: values more than
    2 sigma from the mean are discarded and redrawn, which bounds the
    largest initial weight and was the paper's choice for every
    convolution (Section III-A).
    """

    def __init__(self, mean: float = 0.0, stddev: float = 0.05, dtype=None):
        super().__init__(dtype)
        self.mean, self.stddev = float(mean), float(stddev)

    def __call__(self, shape, rng):
        out = rng.normal(self.mean, self.stddev, size=shape)
        lo, hi = self.mean - 2 * self.stddev, self.mean + 2 * self.stddev
        bad = (out < lo) | (out > hi)
        # Redraw the tails; each pass keeps ~95.4% so this converges fast.
        while bad.any():
            out[bad] = rng.normal(self.mean, self.stddev, size=int(bad.sum()))
            bad = (out < lo) | (out > hi)
        return out.astype(self._dtype(), copy=False)


_REGISTRY = {
    "zeros": Zeros,
    "truncated_normal": TruncatedNormal,
}


def get_initializer(spec, dtype=None) -> Initializer:
    """Resolve a string name or pass through an :class:`Initializer`.

    ``dtype`` applies only when constructing from a string name;
    ready-made instances keep their own setting.
    """
    if isinstance(spec, Initializer):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec](dtype=dtype)
        except KeyError:
            raise ValueError(
                f"unknown initializer {spec!r}; known: {sorted(_REGISTRY)}"
            ) from None
    raise TypeError(f"cannot interpret {spec!r} as an initializer")
