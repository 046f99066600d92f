"""The ``reference`` backend: the original einsum/scatter kernels.

Kept verbatim as the numerical ground truth the GEMM backend is
cross-validated against (every stride/padding/kernel combination the
U-Net uses, forward and backward, plus finite-difference gradchecks).
Written as a small number of large vectorised operations
(``sliding_window_view`` + ``einsum`` on the forward path, one
scatter-add per kernel offset on the backward path): a 3x3x3 kernel
costs 27 fused updates regardless of volume size.

Perf note: earlier revisions forced ``np.ascontiguousarray`` onto the
forward output and the backward input-gradient.  Both were full
activation-tensor copies per layer per step bought for nothing -- every
consumer in the stack (einsum, ``sliding_window_view``, ufuncs, the
norm layers) handles strided arrays -- so the results are now returned
as produced.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .common import conv_transpose3d_output_shape, pad_volume
from .registry import KernelBackend, register_backend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(KernelBackend):
    """einsum contractions over ``sliding_window_view`` patches."""

    name = "reference"

    def conv3d_forward(self, x, w, b, stride, pad):
        s, p = stride, pad
        xp = pad_volume(x, p)
        kd, kh, kw = w.shape[2:]
        # (N, C, D', H', W', kd, kh, kw) view -- no copy.
        cols = sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))
        cols = cols[:, :, :: s[0], :: s[1], :: s[2]]
        y = np.einsum("ncdhwxyz,ocxyz->nodhw", cols, w, optimize=True)
        if b is not None:
            y += b.reshape(1, -1, 1, 1, 1)
        return y

    def conv3d_backward(self, dy, x, w, stride, pad, with_bias):
        s, p = stride, pad
        kd, kh, kw = w.shape[2:]
        Do, Ho, Wo = dy.shape[2:]

        xp = pad_volume(x, p)
        cols = sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))
        cols = cols[:, :, :: s[0], :: s[1], :: s[2]]
        dw = np.einsum("nodhw,ncdhwxyz->ocxyz", dy, cols, optimize=True)

        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None

        dxp = np.zeros_like(xp)
        # dy (N,O,Do,Ho,Wo) x w[:,:,i,j,k] (O,C) -> offset (i,j,k)
        for i in range(kd):
            di = slice(i, i + s[0] * Do, s[0])
            for j in range(kh):
                dj = slice(j, j + s[1] * Ho, s[1])
                for k in range(kw):
                    dk = slice(k, k + s[2] * Wo, s[2])
                    dxp[:, :, di, dj, dk] += np.einsum(
                        "nodhw,oc->ncdhw", dy, w[:, :, i, j, k],
                        optimize=True
                    )
        pd, ph, pw = p
        dx = dxp[
            :,
            :,
            pd : dxp.shape[2] - pd or None,
            ph : dxp.shape[3] - ph or None,
            pw : dxp.shape[4] - pw or None,
        ]
        return dx, dw, db

    def conv_transpose3d_forward(self, x, w, b, stride):
        s = stride
        n, _, D, H, W = x.shape
        kd, kh, kw = w.shape[2:]
        Do, Ho, Wo = conv_transpose3d_output_shape((D, H, W), (kd, kh, kw), s)
        y = np.zeros((n, w.shape[1], Do, Ho, Wo), dtype=x.dtype)
        for i in range(kd):
            di = slice(i, i + s[0] * D, s[0])
            for j in range(kh):
                dj = slice(j, j + s[1] * H, s[1])
                for k in range(kw):
                    dk = slice(k, k + s[2] * W, s[2])
                    y[:, :, di, dj, dk] += np.einsum(
                        "ncdhw,co->nodhw", x, w[:, :, i, j, k], optimize=True
                    )
        if b is not None:
            y += b.reshape(1, -1, 1, 1, 1)
        return y

    def conv_transpose3d_backward(self, dy, x, w, stride, with_bias):
        s = stride
        kd, kh, kw = w.shape[2:]
        n, _, D, H, W = x.shape

        dx = np.zeros_like(x)
        dw = np.zeros_like(w)
        for i in range(kd):
            di = slice(i, i + s[0] * D, s[0])
            for j in range(kh):
                dj = slice(j, j + s[1] * H, s[1])
                for k in range(kw):
                    dk = slice(k, k + s[2] * W, s[2])
                    dy_off = dy[:, :, di, dj, dk]
                    dx += np.einsum("nodhw,co->ncdhw", dy_off,
                                    w[:, :, i, j, k], optimize=True)
                    dw[:, :, i, j, k] = np.einsum(
                        "ncdhw,nodhw->co", x, dy_off, optimize=True
                    )
        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None
        return dx, dw, db


register_backend(ReferenceBackend())
