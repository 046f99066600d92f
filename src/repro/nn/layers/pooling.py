"""3D pooling layers (non-overlapping windows, stride == kernel)."""

from __future__ import annotations

import numpy as np

from ..functional import (
    maxpool3d_backward,
    maxpool3d_forward,
)
from ..module import Module

__all__ = ["MaxPool3D"]


class MaxPool3D(Module):
    """2x2x2 (by default) max pooling with stride two in each dimension,
    as used between the analysis-path resolution steps (Section II-B1)."""

    def __init__(self, kernel_size=2):
        super().__init__()
        self.kernel_size = kernel_size
        self._arg: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, arg = maxpool3d_forward(x, self.kernel_size)
        self._arg, self._x_shape = arg, x.shape
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._arg is None:
            raise RuntimeError("backward called before forward")
        dx = maxpool3d_backward(dy, self._arg, self._x_shape, self.kernel_size)
        self._arg = None
        return dx
