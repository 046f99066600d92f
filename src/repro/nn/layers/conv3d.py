"""3D convolution layer (channels-first), the workhorse of the 3D U-Net."""

from __future__ import annotations

import numpy as np

from ..dtypes import resolve_dtype
from ..functional import (
    conv3d_backward,
    conv3d_forward,
    conv3d_output_shape,
)
from ..initializers import get_initializer
from ..module import Module

__all__ = ["Conv3D"]


def _resolve_padding(padding, kernel: tuple[int, int, int]) -> tuple[int, int, int]:
    if padding == "same":
        if any(k % 2 == 0 for k in kernel):
            raise ValueError(
                f"'same' padding requires odd kernel dims, got {kernel}"
            )
        return tuple(k // 2 for k in kernel)
    if padding == "valid":
        return (0, 0, 0)
    if isinstance(padding, int):
        return (padding, padding, padding)
    t = tuple(int(p) for p in padding)
    if len(t) != 3:
        raise ValueError(f"padding must be 'same', 'valid', int or 3-tuple, got {padding!r}")
    return t


class Conv3D(Module):
    """``y = conv3d(x, W) + b`` with learned ``W`` of shape
    ``(out_channels, in_channels, kD, kH, kW)``.

    Defaults match the paper's configuration: truncated-normal kernel
    initialiser and 'same' padding for the 3x3x3 convolutions of the
    analysis/synthesis paths (Section III-A).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size=3,
        stride=1,
        padding="same",
        use_bias: bool = True,
        kernel_initializer=None,
        bias_initializer=None,
        rng: np.random.Generator | None = None,
        dtype=None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        k = kernel_size
        self.kernel = (k, k, k) if isinstance(k, int) else tuple(int(v) for v in k)
        self.stride = stride
        self.padding = _resolve_padding(padding, self.kernel)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.use_bias = bool(use_bias)
        self.dtype = resolve_dtype(dtype)

        rng = rng if rng is not None else np.random.default_rng()
        k_init = get_initializer(kernel_initializer or "truncated_normal",
                                 dtype=self.dtype)
        b_init = get_initializer(bias_initializer or "zeros",
                                 dtype=self.dtype)
        self.add_parameter(
            "w", k_init((out_channels, in_channels, *self.kernel), rng)
        )
        if self.use_bias:
            self.add_parameter("b", b_init((out_channels,), rng))

        self._x: np.ndarray | None = None

    def output_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        return conv3d_output_shape(spatial, self.kernel, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        self._x = x
        return conv3d_forward(
            x,
            self.w.value,
            self.b.value if self.use_bias else None,
            stride=self.stride,
            pad=self.padding,
        )

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        dx, dw, db = conv3d_backward(
            dy,
            self._x,
            self.w.value,
            stride=self.stride,
            pad=self.padding,
            with_bias=self.use_bias,
        )
        self.w.grad += dw
        if self.use_bias:
            self.b.grad += db
        self._x = None
        return dx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv3D({self.in_channels}->{self.out_channels}, "
            f"k={self.kernel}, stride={self.stride}, pad={self.padding})"
        )
