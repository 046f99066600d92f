"""The ``fused`` backend: depth-sliced batched GEMMs plus Conv+BN+ReLU fusion.

The production convolution backend (``reference`` stays registered as
the test oracle).  A single full-3D im2col GEMM -- one giant patches
matrix ``(N, C*kd*kh*kw, Do*Ho*Wo)`` -- is bandwidth-bound for the
skinny matrices of a small-filter 3D U-Net: every padded input slice is
copied ``kd`` times into the patches matrix, and the whole matrix
streams from DRAM once per multiply.  This backend lowers the
convolution differently:

* **depth-sliced im2col** (MEC-style) -- only the *2D* patch columns
  ``(C*kh*kw, Ho*Wo)`` are gathered, once per padded input depth slice,
  into a ``(N, S, C*kh*kw, Ho*Wo)`` buffer: a third of the gather
  traffic of the full 3D im2col for a 3^3 kernel.  The depth axis of
  the kernel is then applied as ``kd`` *batched* GEMMs -- for offset
  ``j`` the weight slab ``w[:, :, j]`` multiplies the slice range
  ``cols2[:, j::sd]`` -- accumulated into a batch-major scratch and
  transpose-copied into the output layout.  Each per-slice operand is
  contiguous (or has one unit stride), so every batch entry dispatches
  straight to BLAS; measured 2-3x faster than the single-GEMM lowering
  on the 32^3 U-Net layer shapes.  The gather itself is a raw
  ``as_strided`` window copy: ``sliding_window_view`` spends as long in
  shape/stride bookkeeping as in the copy at these call counts.
* **output-depth tiling** -- the slice buffer is tiled along output
  depth to :data:`TILE_BYTES` per tile so it stays resident in a
  core's L2, and every tile's buffer goes back to the arena as soon as
  its GEMMs are done.  The backward weight gradient re-gathers each
  tile's slice buffer from the padded input and contracts its slice
  ranges against the matching ``dy`` rows (``cols2 @ dy^T`` per depth
  offset and output depth slice): nothing the forward gathered
  outlives the forward, so a training step holds about one tile of
  slice buffers at a time.  The input gradient at unit stride is the
  mirrored lowering over the padded ``dy`` -- 2D patches of ``dy``
  against depth slabs of the flipped kernel, tiled over input depth;
  strided convolutions take the col2im form (GEMM ``w^T @ dy``, then a
  scatter-add per kernel offset).
* **tile-invariant reductions** -- no sum is ever taken per tile.  The
  BN channel sums are kept per (sample, output depth slice) and the
  weight gradient's per-slice GEMM products land in one
  ``(kd, N, Do, K9, Cout)`` buffer; each is reduced once, after the
  last tile.  Every result is therefore bit-identical whatever the
  tile plan: :data:`TILE_BYTES` trades speed against memory, never
  accuracy.
* **1x1x1 convolutions** (the segmentation head) are one batched GEMM
  on the input itself, which already is the patches matrix.
* **transposed conv** -- one GEMM producing the offset columns, then a
  ``kd*kh*kw``-step scatter (forward) / gather (backward).
* **fused Conv3D+BatchNorm+ReLU** (``supports_fusion``) -- training
  forward accumulates the BN channel sums in the GEMM epilogue while
  each output tile is cache-hot, then applies ``relu(scale*y + shift)``
  in one elementwise pass; eval forward folds the running statistics
  into the weights (``w' = w*scale``, ``b' = b*scale + shift``) and
  applies ReLU per tile, one pass total.  The backward reconstructs the
  BN input gradient without ever materialising ``x_hat``: with
  ``dyr = dy * (y > 0)`` the conv-output gradient is the channel-affine
  ``A*dyr + B*y_conv + C`` (coefficients from the standard BN gradient
  with ``x_hat`` substituted by ``(y_conv - mean) * inv_std``), applied
  in place on the conv output ``y_conv``, the one volume the training
  forward keeps in ``ctx`` for its backward.  Per U-Net stage this
  skips the ``x_hat`` volume, the BN output volume and the ReLU mask
  the unfused layer chain materialises.

All scratch (slice buffers, padded volumes) is checked out of the
:mod:`~repro.nn.kernels.workspace` arena and recycled across steps;
outputs are always freshly allocated, never views into the arena.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .common import conv3d_output_shape, conv_transpose3d_output_shape
from .registry import KernelBackend, register_backend
from .workspace import workspace

__all__ = ["FusedBackend"]

_UNIT = (1, 1, 1)

#: Target bytes for one tile's slice buffer: half of a 2 MiB per-core
#: L2, so a tile and its GEMM output fit together.  Buffers up to twice
#: this run as one tile (:func:`_plan_tiles`).
TILE_BYTES = 1024 * 1024


def _padded(ws, x: np.ndarray, pad) -> np.ndarray:
    """Zero-padded copy of ``x`` in an arena buffer (``x`` itself when
    padding is zero -- callers must not write through it)."""
    pd, ph, pw = pad
    if pd == ph == pw == 0:
        return x
    n, c, D, H, W = x.shape
    xp = ws.acquire((n, c, D + 2 * pd, H + 2 * ph, W + 2 * pw), x.dtype)
    # Zero only the pad margins -- the interior is fully overwritten by
    # the copy below, and skipping its redundant fill saves one complete
    # write pass over the (recycled, hence dirty) arena buffer.
    if pd:
        xp[:, :, :pd].fill(0.0)
        xp[:, :, pd + D:].fill(0.0)
    if ph:
        xp[:, :, pd : pd + D, :ph].fill(0.0)
        xp[:, :, pd : pd + D, ph + H:].fill(0.0)
    if pw:
        xp[:, :, pd : pd + D, ph : ph + H, :pw].fill(0.0)
        xp[:, :, pd : pd + D, ph : ph + H, pw + W:].fill(0.0)
    xp[:, :, pd : pd + D, ph : ph + H, pw : pw + W] = x
    return xp


def _plan_tiles(n, K9, Do, Ho, Wo, itemsize):
    """Output-depth tile spans ``[(d0, d1), ...]``, or ``None`` when the
    whole slice buffer (``K9 = C*kh*kw`` rows per depth slice) already
    fits the tile target and tiling would only add gather-halo
    overhead."""
    per_d = n * K9 * Ho * Wo * itemsize
    if per_d * Do <= 2 * TILE_BYTES:
        return None
    td = max(1, TILE_BYTES // per_d)
    if td >= Do:
        return None
    return [(d0, min(d0 + int(td), Do)) for d0 in range(0, Do, int(td))]


def _gather_slab2d(xslab, kernel_hw, stride_hw, out):
    """2D im2col every depth slice of a padded slab: fill ``out``
    ``(N, S, C*kh*kw, Ho*Wo)`` from ``xslab`` ``(N, C, S, Hp, Wp)``.
    One window copy per call -- each input slice is touched once, not
    once per kernel depth offset."""
    n, c, S, Hp, Wp = xslab.shape
    kh, kw = kernel_hw
    sh, sw = stride_hw
    tn, tc, t2, t3, t4 = xslab.strides
    Ho = (Hp - kh) // sh + 1
    Wo = (Wp - kw) // sw + 1
    win = as_strided(
        xslab,
        (n, S, c, kh, kw, Ho, Wo),
        (tn, t2, tc, t3, t4, t3 * sh, t4 * sw),
    )
    np.copyto(out.reshape(n, S, c, kh, kw, Ho, Wo), win)


def _w_slices(w):
    """Per-depth-offset weight slabs ``(kd, co, C*kh*kw)``, contiguous
    so each batched GEMM gets a BLAS-clean left operand."""
    co, c, kd, kh, kw = w.shape
    return np.ascontiguousarray(
        w.transpose(2, 0, 1, 3, 4)).reshape(kd, co, c * kh * kw)


def _pointwise_forward(x, w, b):
    """1x1x1 channel mix: the input already is the patches matrix."""
    n, c = x.shape[:2]
    co = w.shape[0]
    Do, Ho, Wo = x.shape[2:]
    P = Do * Ho * Wo
    y = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
    np.matmul(w.reshape(co, c), x.reshape(n, c, P), out=y.reshape(n, co, P))
    if b is not None:
        y += b.reshape(1, -1, 1, 1, 1)
    return y


def _pointwise_backward(dy, x, w, with_bias):
    """Gradients of :func:`_pointwise_forward`: two GEMMs on the input
    and ``dy`` as they are."""
    n, c = x.shape[:2]
    co = w.shape[0]
    P = dy.shape[2] * dy.shape[3] * dy.shape[4]
    cols = x.reshape(n, c, P)
    dy2 = np.ascontiguousarray(dy).reshape(n, co, P)
    dw = np.matmul(dy2, cols.transpose(0, 2, 1)).sum(axis=0)
    dw = dw.reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None
    dx = np.empty_like(x)
    np.matmul(w.reshape(co, c).T, dy2, out=dx.reshape(n, c, P))
    return dx, dw, db


def _dx_scatter(ws, dy2, w, stride, pad, x_shape):
    """General-stride input gradient: col2im scatter-add of
    ``w^T @ dy``."""
    n, c, D, H, W = x_shape
    co = w.shape[0]
    kd, kh, kw = w.shape[2:]
    P = dy2.shape[2]
    K = c * kd * kh * kw
    Do, Ho, Wo = conv3d_output_shape((D, H, W), (kd, kh, kw), stride, pad)
    dcols = ws.acquire((n, K, P), dy2.dtype)
    np.matmul(w.reshape(co, K).T, dy2, out=dcols)

    pd, ph, pw = pad
    dxp = ws.acquire((n, c, D + 2 * pd, H + 2 * ph, W + 2 * pw), dy2.dtype)
    dxp.fill(0.0)
    v = dcols.reshape(n, c, kd, kh, kw, Do, Ho, Wo)
    for i in range(kd):
        di = slice(i, i + stride[0] * Do, stride[0])
        for j in range(kh):
            dj = slice(j, j + stride[1] * Ho, stride[1])
            for k in range(kw):
                dk = slice(k, k + stride[2] * Wo, stride[2])
                dxp[:, :, di, dj, dk] += v[:, :, i, j, k]
    dx = dxp[
        :,
        :,
        pd : dxp.shape[2] - pd or None,
        ph : dxp.shape[3] - ph or None,
        pw : dxp.shape[4] - pw or None,
    ].copy()
    ws.release(dxp)
    ws.release(dcols)
    return dx


def _dx_correlation_tiled(ws, dy, w, pad, x_shape):
    """Unit-stride input gradient: the mirrored depth-sliced
    lowering -- 2D patches of the padded ``dy`` against per-offset
    slabs of the flipped kernel, tiled over the *input* depth."""
    n, c, D, H, W = x_shape
    co = w.shape[0]
    kd, kh, kw = w.shape[2:]
    bpad = tuple(kk - 1 - pp for kk, pp in zip((kd, kh, kw), pad))
    K9b = co * kh * kw
    HW = H * W
    tiles = (_plan_tiles(n, K9b, D, H, W, dy.dtype.itemsize)
             or [(0, D)])
    dyp = _padded(ws, dy, bpad)
    wkb = np.ascontiguousarray(
        w[:, :, ::-1, ::-1, ::-1].transpose(2, 1, 0, 3, 4)
    ).reshape(kd, c, K9b)
    dx = np.empty(x_shape, dtype=dy.dtype)

    for d0, d1 in tiles:
        td = d1 - d0
        S = td - 1 + kd
        cols2 = ws.acquire((n, S, K9b, HW), dy.dtype)
        _gather_slab2d(dyp[:, :, d0 : d0 + S], (kh, kw), (1, 1), cols2)
        xbat = ws.acquire((n, td, c, HW), dy.dtype)
        tmp = ws.acquire((n, td, c, HW), dy.dtype) if kd > 1 else None
        np.matmul(wkb[0], cols2[:, 0:td], out=xbat)
        for j in range(1, kd):
            np.matmul(wkb[j], cols2[:, j : j + td], out=tmp)
            np.add(xbat, tmp, out=xbat)
        if tmp is not None:
            ws.release(tmp)
        ws.release(cols2)
        np.copyto(
            dx[:, :, d0:d1],
            xbat.reshape(n, td, c, H, W).transpose(0, 2, 1, 3, 4))
        ws.release(xbat)
    if dyp is not dy:
        ws.release(dyp)
    return dx


class FusedBackend(KernelBackend):
    """Depth-sliced batched GEMMs with a fused Conv3D+BatchNorm+ReLU pair."""

    name = "fused"
    supports_fusion = True

    # -- depth-sliced conv3d ------------------------------------------------
    def conv3d_forward(self, x, w, b, stride, pad):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return _pointwise_forward(x, w, b)
        n, c = x.shape[:2]
        co = w.shape[0]
        Do, Ho, Wo = conv3d_output_shape(x.shape[2:], kernel, stride, pad)
        K9 = c * kernel[1] * kernel[2]
        tiles = (_plan_tiles(n, K9, Do, Ho, Wo, x.dtype.itemsize)
                 or [(0, Do)])
        ws = workspace()
        xp = _padded(ws, x, pad)
        y = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
        self._run_tiles(ws, xp, w, b, y, stride, tiles)
        if xp is not x:
            ws.release(xp)
        return y

    def conv3d_backward(self, dy, x, w, stride, pad, with_bias,
                        need_dx=True):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return _pointwise_backward(dy, x, w, with_bias)
        n, c = x.shape[:2]
        co = w.shape[0]
        kd, kh, kw = kernel
        sd = stride[0]
        Do, Ho, Wo = dy.shape[2:]
        HoWo = Ho * Wo
        K9 = c * kh * kw
        ws = workspace()
        tiles = (_plan_tiles(n, K9, Do, Ho, Wo, x.dtype.itemsize)
                 or [(0, Do)])
        dyc = np.ascontiguousarray(dy)

        # dw: re-gather each tile's slice buffer, then for depth offset
        # j contract the slice range ``cols2[:, j::sd]`` against the
        # matching dy rows -- per-slice GEMMs in the flipped orientation
        # (K9 patch rows as M) written into one per-slice product
        # buffer, summed once after the last tile, so the tile plan
        # never changes the bits.
        prods = ws.acquire((kd, n, Do, K9, co), x.dtype)
        xp = _padded(ws, x, pad)
        for d0, d1 in tiles:
            td = d1 - d0
            S = (td - 1) * sd + kd
            cols2 = ws.acquire((n, S, K9, HoWo), x.dtype)
            _gather_slab2d(xp[:, :, d0 * sd : d0 * sd + S], (kh, kw),
                           stride[1:], cols2)
            dyb = (dyc[:, :, d0:d1].reshape(n, co, td, HoWo)
                   .transpose(0, 2, 3, 1))  # (n, td, HoWo, co) view
            for j in range(kd):
                slab = cols2[:, j : j + (td - 1) * sd + 1 : sd]
                np.matmul(slab, dyb, out=prods[j][:, d0:d1])
            ws.release(cols2)
        if xp is not x:
            ws.release(xp)
        total = prods.reshape(kd, n * Do, K9, co).sum(axis=1)
        ws.release(prods)
        dw = np.ascontiguousarray(
            total.reshape(kd, c, kh, kw, co).transpose(4, 1, 0, 2, 3))
        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None

        if not need_dx:
            dx = None  # first-layer input carries no gradient
        elif stride == _UNIT and all(kk - 1 - pp >= 0 for kk, pp in
                                     zip(kernel, pad)):
            dx = _dx_correlation_tiled(ws, dyc, w, pad, x.shape)
        else:
            dx = _dx_scatter(ws, dyc.reshape(n, co, Do * HoWo), w, stride,
                             pad, x.shape)
        return dx, dw, db

    def _run_tiles(self, ws, xp, w5, b, y, stride, tiles,
                   relu=False, stats=None):
        """Run every tile's depth-sliced GEMMs into its slice of ``y``;
        optionally apply bias/ReLU, and/or write the BN channel sums and
        sums of squares per (sample, depth slice) into ``stats``
        ``(2, n, Do, co)`` (computed on the batch-major scratch while it
        is cache-hot, before the transpose-copy into ``y``)."""
        n = xp.shape[0]
        co, _, kd, kh, kw = w5.shape
        Do, Ho, Wo = y.shape[2:]
        HoWo = Ho * Wo
        sd = stride[0]
        wk = _w_slices(w5)
        K9 = wk.shape[2]
        bias = None if b is None else b.reshape(1, 1, co, 1)

        for d0, d1 in tiles:
            td = d1 - d0
            S = (td - 1) * sd + kd
            cols2 = ws.acquire((n, S, K9, HoWo), y.dtype)
            _gather_slab2d(xp[:, :, d0 * sd : d0 * sd + S], (kh, kw),
                           stride[1:], cols2)
            ybat = ws.acquire((n, td, co, HoWo), y.dtype)
            tmp = (ws.acquire((n, td, co, HoWo), y.dtype)
                   if kd > 1 else None)
            np.matmul(wk[0], cols2[:, 0 : (td - 1) * sd + 1 : sd],
                      out=ybat)
            for j in range(1, kd):
                np.matmul(wk[j], cols2[:, j : j + (td - 1) * sd + 1 : sd],
                          out=tmp)
                np.add(ybat, tmp, out=ybat)
            if tmp is not None:
                ws.release(tmp)
            ws.release(cols2)
            if bias is not None:
                ybat += bias
            if relu:
                np.maximum(ybat, 0.0, out=ybat)
            if stats is not None:  # while the scratch is cache-hot
                ybat.sum(axis=3, out=stats[0][:, d0:d1])
                np.einsum("ndcp,ndcp->ndc", ybat, ybat,
                          out=stats[1][:, d0:d1])
            np.copyto(
                y[:, :, d0:d1],
                ybat.reshape(n, td, co, Ho, Wo).transpose(0, 2, 1, 3, 4))
            ws.release(ybat)

    # -- fused Conv3D + BatchNorm + ReLU ------------------------------------
    def conv3d_bn_relu_forward(self, x, w, b, gamma, beta, running_mean,
                               running_var, eps, stride, pad, training,
                               ctx=None):
        ws = workspace()
        n, c = x.shape[:2]
        co = w.shape[0]
        kernel = w.shape[2:]
        Do, Ho, Wo = conv3d_output_shape(x.shape[2:], kernel, stride, pad)
        K9 = c * kernel[1] * kernel[2]
        tiles = (_plan_tiles(n, K9, Do, Ho, Wo, x.dtype.itemsize)
                 or [(0, Do)])
        xp = _padded(ws, x, pad)

        if not training:
            # Running stats are constants: fold BN into the weights and
            # finish each tile with an in-place ReLU -- one pass total.
            inv_std = 1.0 / np.sqrt(running_var + eps)
            scale = gamma * inv_std
            shift = beta - running_mean * scale
            wf = w * scale.reshape(-1, 1, 1, 1, 1)
            bf = shift if b is None else b * scale + shift
            y = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
            self._run_tiles(ws, xp, wf, bf, y, stride, tiles, relu=True)
            if xp is not x:
                ws.release(xp)
            return y, running_mean, running_var

        # Training: conv into the y_conv buffer the backward keeps,
        # folding the BN channel sums into the tile epilogue, then one
        # affine+ReLU pass.
        y_conv = ws.acquire((n, co, Do, Ho, Wo), x.dtype)
        stats = ws.acquire((2, n, Do, co), x.dtype)
        self._run_tiles(ws, xp, w, b, y_conv, stride, tiles, stats=stats)
        if xp is not x:
            ws.release(xp)
        total, sq_total = stats.sum(axis=(1, 2))
        ws.release(stats)
        count = float(n * Do * Ho * Wo)
        mean = total / count
        var = np.maximum(sq_total / count - mean**2, 0.0)  # numerical guard
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma * inv_std
        shift = beta - mean * scale

        y = np.empty_like(y_conv)
        s_r = scale.reshape(1, -1, 1, 1, 1)
        np.multiply(y_conv, s_r, out=y)
        y += shift.reshape(1, -1, 1, 1, 1)
        np.maximum(y, 0.0, out=y)

        if ctx is not None:
            ctx.update(y_conv=y_conv, mean=mean, inv_std=inv_std,
                       count=count, scale=scale, shift=shift)
        else:
            ws.release(y_conv)
        return y, mean, var

    def conv3d_bn_relu_backward(self, dy, x, w, gamma, stride, pad,
                                with_bias, ctx=None, need_dx=True):
        if not ctx or "y_conv" not in ctx:
            raise RuntimeError(
                "fused conv/BN/ReLU backward needs the ctx its training "
                "forward populated")
        ws = workspace()
        y_conv = ctx.pop("y_conv")
        mean = ctx.pop("mean")
        inv_std = ctx.pop("inv_std")
        count = ctx.pop("count")
        scale = ctx.pop("scale")
        shift = ctx.pop("shift")

        def rc(v):  # per-channel broadcast
            return v.reshape(1, -1, 1, 1, 1)

        # ReLU gate: the pre-activation is > 0 exactly where the output
        # is (ties at 0 get zero gradient either way), so the kept
        # conv output reconstructs the mask without a stored one.
        dyr = ws.acquire(dy.shape, dy.dtype)
        np.multiply(y_conv, rc(scale), out=dyr)
        dyr += rc(shift)
        np.multiply(dy, dyr > 0, out=dyr)

        axes = (0, 2, 3, 4)
        s0 = dyr.sum(axis=axes)                       # sum of gated dy
        t1 = np.einsum("ncdhw,ncdhw->c", dyr, y_conv)
        dbeta = s0
        dgamma = inv_std * (t1 - mean * s0)

        # BN input gradient without x_hat: substituting
        # x_hat = (y_conv - mean) * inv_std into
        # dx = inv_std/m * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
        # gives the channel-affine dconv = A*dyr + B*y_conv + C.
        m = count
        s1 = gamma * s0           # sum(dxhat)
        s2 = gamma * dgamma       # sum(dxhat * x_hat)
        A = gamma * inv_std
        B = -(inv_std**2) * s2 / m
        C = -inv_std * s1 / m - mean * B

        np.multiply(dyr, rc(A), out=dyr)
        np.multiply(y_conv, rc(B), out=y_conv)
        y_conv += dyr
        y_conv += rc(C)
        ws.release(dyr)

        dx, dw, db = self.conv3d_backward(y_conv, x, w, stride, pad,
                                          with_bias, need_dx=need_dx)
        ws.release(y_conv)
        return dx, dw, db, dgamma, dbeta

    # -- conv_transpose3d --------------------------------------------------
    def conv_transpose3d_forward(self, x, w, b, stride):
        ws = workspace()
        n, ci, D, H, W = x.shape
        co = w.shape[1]
        kd, kh, kw = w.shape[2:]
        Do, Ho, Wo = conv_transpose3d_output_shape((D, H, W), (kd, kh, kw),
                                                   stride)
        P, K = D * H * W, co * kd * kh * kw

        cols = ws.acquire((n, K, P), x.dtype)
        np.matmul(w.reshape(ci, K).T,
                  np.ascontiguousarray(x).reshape(n, ci, P), out=cols)
        y = np.zeros((n, co, Do, Ho, Wo), dtype=x.dtype)
        v = cols.reshape(n, co, kd, kh, kw, D, H, W)
        for i in range(kd):
            di = slice(i, i + stride[0] * D, stride[0])
            for j in range(kh):
                dj = slice(j, j + stride[1] * H, stride[1])
                for k in range(kw):
                    dk = slice(k, k + stride[2] * W, stride[2])
                    y[:, :, di, dj, dk] += v[:, :, i, j, k]
        ws.release(cols)
        if b is not None:
            y += b.reshape(1, -1, 1, 1, 1)
        return y

    def conv_transpose3d_backward(self, dy, x, w, stride, with_bias):
        ws = workspace()
        n, ci, D, H, W = x.shape
        co = w.shape[1]
        kd, kh, kw = w.shape[2:]
        P, K = D * H * W, co * kd * kh * kw

        # Gather dy at every kernel offset: the adjoint of the forward
        # scatter, one strided slice copy per offset.
        dycols = ws.acquire((n, K, P), dy.dtype)
        v = dycols.reshape(n, co, kd, kh, kw, D, H, W)
        for i in range(kd):
            di = slice(i, i + stride[0] * D, stride[0])
            for j in range(kh):
                dj = slice(j, j + stride[1] * H, stride[1])
                for k in range(kw):
                    dk = slice(k, k + stride[2] * W, stride[2])
                    v[:, :, i, j, k] = dy[:, :, di, dj, dk]

        dx = np.empty_like(x)
        np.matmul(w.reshape(ci, K), dycols, out=dx.reshape(n, ci, P))
        x2 = np.ascontiguousarray(x).reshape(n, ci, P)
        dw = np.matmul(x2, dycols.transpose(0, 2, 1)).sum(axis=0)
        dw = dw.reshape(w.shape)
        ws.release(dycols)
        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None
        return dx, dw, db

    # -- ctx management ----------------------------------------------------
    def release_ctx(self, ctx: dict | None) -> None:
        """Reclaim scratch a fused Conv+BN+ReLU training forward parked
        for a backward that never ran (e.g. a training-mode forward used
        for evaluation).

        Releases *every* arena array in ``ctx`` (``y_conv``; the
        statistics are foreign and ignored), so a ctx filled under one
        backend is still reclaimed when another is active at cleanup
        time (layers may outlive a ``use_backend`` block)."""
        if not ctx:
            return
        ws = workspace()
        for buf in ctx.values():
            if isinstance(buf, np.ndarray):
                ws.release(buf)
        ctx.clear()


register_backend(FusedBackend())
