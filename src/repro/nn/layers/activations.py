"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from ..module import Module

__all__ = ["ReLU", "Sigmoid"]


class ReLU(Module):
    """Rectified linear unit, the paper's activation after every BN."""

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        dx = np.where(self._mask, dy, 0.0)
        self._mask = None
        return dx


class Sigmoid(Module):
    """Logistic output used for the final 1x1x1 binary-mask head."""

    def __init__(self):
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise formulation.  Floating inputs
        # keep their dtype (the float32 compute path must not silently
        # promote at the head); anything else lands in float64.
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        y = np.empty_like(x, dtype=dtype)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._y = y
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        dx = dy * self._y * (1.0 - self._y)
        self._y = None
        return dx
