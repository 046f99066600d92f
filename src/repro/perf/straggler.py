"""Straggler (max-of-n) statistics for synchronous training.

A synchronous data-parallel step ends when the *slowest* replica
finishes, so with per-replica compute times ``t * L_i`` (``L_i``
i.i.d. lognormal(0, sigma)), the expected step time is
``t * E[max_i L_i]``.  The inflation factor ``E[max of n] / E[single]``
grows with ``n`` -- one of the three first-principles reasons the
paper's data-parallel speed-up is sub-linear (DESIGN.md Section 5).

``E[exp(sigma * Z_(n))]`` (``Z_(n)`` the max of n standard normals) is
evaluated by numerical quadrature of the order-statistic density
``n * phi(z) * Phi(z)**(n-1)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["expected_max_factor", "sample_max_factor"]


def _ndtr(z: float) -> float:
    """Standard normal cdf on Cephes' ``ndtr`` branches; the one-line
    ``0.5 * erfc(-z / sqrt(2))`` can put the factor below 1."""
    x = z * math.sqrt(0.5)
    if abs(x) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


_Z = np.linspace(-9.0, 9.0, 4001)
_PDF = np.exp(-_Z**2 / 2.0) / math.sqrt(2 * math.pi)
_CDF = np.array([_ndtr(z) for z in _Z])


@functools.lru_cache(maxsize=4096)
def expected_max_factor(n: int, sigma: float) -> float:
    """E[max of n lognormal(0, sigma)] / E[lognormal(0, sigma)].

    Equals 1 for n == 1 or sigma == 0; strictly increasing in both
    arguments otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if n == 1 or sigma == 0.0:
        return 1.0
    pdf_max = n * _PDF * _CDF ** (n - 1)
    e_max = np.trapezoid(np.exp(sigma * _Z) * pdf_max, _Z)
    e_single = math.exp(0.5 * sigma**2)  # lognormal mean
    return float(e_max / e_single)


def sample_max_factor(
    n: int, sigma: float, rng: np.random.Generator, num_steps: int = 1
) -> float:
    """Monte-Carlo realisation of the mean max-of-n factor over
    ``num_steps`` steps (used when a run wants stochastic, not expected,
    behaviour)."""
    if n == 1 or sigma == 0.0:
        return 1.0
    draws = rng.lognormal(mean=0.0, sigma=sigma, size=(num_steps, n))
    return float(draws.max(axis=1).mean() / math.exp(0.5 * sigma**2))
