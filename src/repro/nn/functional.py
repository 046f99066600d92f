"""Low-level NumPy kernels for 3D neural-network layers.

All tensors are *channels-first*, matching the paper's data format
(Section III-A): activations are ``(N, C, D, H, W)`` and convolution
weights are ``(C_out, C_in, kD, kH, kW)``.

The convolution entry points here are thin dispatchers: they validate
shapes, normalise ``stride``/``pad`` into 3-tuples, and hand off to the
active :class:`~repro.nn.kernels.registry.KernelBackend` (``fused``,
or the original einsum kernels as the ``reference`` test oracle; see
:mod:`repro.nn.kernels`).  Each dispatched call is stamped with two
``perf_counter`` reads feeding the per-backend kernel-seconds ledger the
profiler splits its ``compute`` bucket by.

Only the fused Conv3D+BN+ReLU pair takes a ``ctx``: an optional
mutable dict owned by the calling layer, where the training forward
keeps the conv output and batch statistics for the matching backward
call.  The dict owns those arrays, so dropping it frees them.  Plain
and transposed convolutions keep nothing between forward and backward:
the backward re-gathers what it needs from its inputs.

Pooling stays here: it is memory-bound reshuffling with no GEMM to
lower to, so there is nothing for a backend to specialise.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .kernels.common import (  # noqa: F401  (re-exported public helpers)
    conv3d_output_shape,
    conv_transpose3d_output_shape,
    pad_volume,
    triple as _triple,
)
from .kernels.registry import get_backend, record_kernel_seconds

__all__ = [
    "pad_volume",
    "conv3d_forward",
    "conv3d_backward",
    "conv3d_bn_relu_forward",
    "conv3d_bn_relu_backward",
    "fused_conv_bn_relu_supported",
    "conv_transpose3d_forward",
    "conv_transpose3d_backward",
    "maxpool3d_forward",
    "maxpool3d_backward",
    "conv3d_output_shape",
    "conv_transpose3d_output_shape",
]


def conv3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    stride=1,
    pad=0,
) -> np.ndarray:
    """3D cross-correlation.

    Parameters
    ----------
    x : (N, C_in, D, H, W)
    w : (C_out, C_in, kD, kH, kW)
    b : (C_out,) or None
    stride, pad : int or 3-tuple

    Returns
    -------
    (N, C_out, D_out, H_out, W_out)
    """
    s, p = _triple(stride), _triple(pad)
    if x.ndim != 5 or w.ndim != 5:
        raise ValueError("conv3d expects 5-D activations and weights")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {w.shape[1]}"
        )
    backend = get_backend()
    t0 = perf_counter()
    y = backend.conv3d_forward(x, w, b, s, p)
    record_kernel_seconds(backend.name, "conv3d_forward", perf_counter() - t0)
    return y


def conv3d_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride=1,
    pad=0,
    with_bias: bool = True,
):
    """Gradients of :func:`conv3d_forward`.

    Returns ``(dx, dw, db)`` where ``db`` is None when ``with_bias`` is
    False.
    """
    s, p = _triple(stride), _triple(pad)
    backend = get_backend()
    t0 = perf_counter()
    out = backend.conv3d_backward(dy, x, w, s, p, with_bias)
    record_kernel_seconds(backend.name, "conv3d_backward", perf_counter() - t0)
    return out


def fused_conv_bn_relu_supported() -> bool:
    """True when the active backend implements the fused
    Conv3D+BatchNorm+ReLU pair (layers fall back to the sequential
    conv/norm/act chain otherwise)."""
    return bool(getattr(get_backend(), "supports_fusion", False))


def conv3d_bn_relu_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
    stride=1,
    pad=0,
    training: bool = True,
    ctx: dict | None = None,
):
    """Fused ``relu(batchnorm(conv3d(x)))`` on a fusion-capable backend.

    Returns ``(y, mean, var)``: the batch statistics in training mode
    (the caller owns the running-statistics update), the running
    statistics unchanged in eval mode.  Raises ``NotImplementedError``
    when the active backend lacks fusion -- check
    :func:`fused_conv_bn_relu_supported` first.
    """
    s, p = _triple(stride), _triple(pad)
    if x.ndim != 5 or w.ndim != 5:
        raise ValueError("conv3d_bn_relu expects 5-D activations and weights")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {w.shape[1]}"
        )
    co = w.shape[0]
    for name, v in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean),
                    ("running_var", running_var)):
        if v.shape != (co,):
            raise ValueError(
                f"{name} must have shape ({co},), got {v.shape}")
    backend = get_backend()
    t0 = perf_counter()
    out = backend.conv3d_bn_relu_forward(
        x, w, b, gamma, beta, running_mean, running_var, eps, s, p,
        training, ctx)
    record_kernel_seconds(backend.name, "conv3d_bn_relu_forward",
                          perf_counter() - t0)
    return out


def conv3d_bn_relu_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    gamma: np.ndarray,
    stride=1,
    pad=0,
    with_bias: bool = True,
    ctx: dict | None = None,
    need_dx: bool = True,
):
    """Gradients of :func:`conv3d_bn_relu_forward` (training mode).

    Returns ``(dx, dw, db, dgamma, dbeta)``; ``ctx`` must be the dict
    the matching forward call populated (it is consumed here).  Pass
    ``need_dx=False`` for a network's first layer: the input carries no
    gradient and skipping ``dx`` saves the largest gather of the
    backward pass (``dx`` comes back as ``None``).  ``UNet3D`` passes
    it for its first block unless built with ``input_grad=True``, and
    then returns ``None`` from ``backward`` on every backend.
    """
    s, p = _triple(stride), _triple(pad)
    backend = get_backend()
    t0 = perf_counter()
    out = backend.conv3d_bn_relu_backward(dy, x, w, gamma, s, p, with_bias,
                                          ctx, need_dx=need_dx)
    record_kernel_seconds(backend.name, "conv3d_bn_relu_backward",
                          perf_counter() - t0)
    return out


def conv_transpose3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    stride=1,
) -> np.ndarray:
    """3D transposed convolution (a.k.a. up-convolution), no padding.

    Parameters
    ----------
    x : (N, C_in, D, H, W)
    w : (C_in, C_out, kD, kH, kW) -- note the transposed channel layout,
        matching ``tf.keras.layers.Conv3DTranspose`` semantics.
    """
    s = _triple(stride)
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {w.shape[0]}"
        )
    backend = get_backend()
    t0 = perf_counter()
    y = backend.conv_transpose3d_forward(x, w, b, s)
    record_kernel_seconds(backend.name, "conv_transpose3d_forward",
                          perf_counter() - t0)
    return y


def conv_transpose3d_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride=1,
    with_bias: bool = True,
):
    """Gradients of :func:`conv_transpose3d_forward`.

    Returns ``(dx, dw, db)``.
    """
    s = _triple(stride)
    backend = get_backend()
    t0 = perf_counter()
    out = backend.conv_transpose3d_backward(dy, x, w, s, with_bias)
    record_kernel_seconds(backend.name, "conv_transpose3d_backward",
                          perf_counter() - t0)
    return out


def _pool_windows(x: np.ndarray, k: tuple[int, int, int]):
    """Reshape ``(N,C,D,H,W)`` into non-overlapping pooling windows.

    Returns a ``(N, C, D', H', W', kd*kh*kw)`` array.  Requires each
    spatial dim to be divisible by the corresponding kernel dim (the
    paper crops its volumes to guarantee exactly this, Section IV-A).
    """
    n, c, D, H, W = x.shape
    kd, kh, kw = k
    if D % kd or H % kh or W % kw:
        raise ValueError(
            f"pooling requires divisible spatial dims, got {(D, H, W)} "
            f"with kernel {k}; crop the input first (see repro.data.preprocess)"
        )
    v = x.reshape(n, c, D // kd, kd, H // kh, kh, W // kw, kw)
    v = v.transpose(0, 1, 2, 4, 6, 3, 5, 7)
    return v.reshape(n, c, D // kd, H // kh, W // kw, kd * kh * kw)


def maxpool3d_forward(x: np.ndarray, kernel=2):
    """Non-overlapping 3D max pooling (stride == kernel).

    Returns ``(y, argmax)`` where ``argmax`` indexes the flattened window
    and is consumed by :func:`maxpool3d_backward`.
    """
    k = _triple(kernel)
    win = _pool_windows(x, k)
    arg = win.argmax(axis=-1)
    y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return y, arg


def maxpool3d_backward(dy: np.ndarray, arg: np.ndarray, x_shape, kernel=2):
    """Scatter pooled gradients back to the argmax positions."""
    k = _triple(kernel)
    kd, kh, kw = k
    n, c, D, H, W = x_shape
    win = np.zeros((*dy.shape, kd * kh * kw), dtype=dy.dtype)
    np.put_along_axis(win, arg[..., None], dy[..., None], axis=-1)
    v = win.reshape(n, c, D // kd, H // kh, W // kw, kd, kh, kw)
    v = v.transpose(0, 1, 2, 5, 3, 6, 4, 7)
    return v.reshape(n, c, D, H, W)
