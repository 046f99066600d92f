"""The ``fused`` backend: depth-sliced batched GEMMs plus Conv+BN+ReLU fusion.

The ``gemm`` backend gathers each convolution into one giant patches
matrix ``(N, C*kd*kh*kw, Do*Ho*Wo)`` and runs a single batched GEMM.
For the skinny matrices of a small-filter 3D U-Net that GEMM is
bandwidth-bound: every padded input slice is copied ``kd`` times into
the patches matrix, and the whole matrix streams from DRAM once per
multiply.  This backend lowers the convolution differently:

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
  depth to a workspace-arena target (``DISTMIS_KERNEL_TILE_MB``,
  default 4 MiB per tile) so it stays cache-resident at large volumes.
  Training forwards *stash* the tile buffers in ``ctx``; the backward
  weight gradient contracts the same slice ranges against the matching
  ``dy`` rows (``cols2 @ dy^T`` per depth offset, partials summed in
  tile order) with no re-gather.  The input gradient at unit stride is
  the mirrored lowering over the padded ``dy`` -- 2D patches of ``dy``
  against depth slabs of the flipped kernel.
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
  in place on the stashed conv output.  Per U-Net stage this skips the
  ``x_hat`` volume, the BN output volume and the ReLU mask the unfused
  layer chain materialises.
* **thread-pool tiles** -- independent tiles optionally run on a shared
  ``ThreadPoolExecutor`` (``DISTMIS_KERNEL_THREADS``, default 1): the
  arena hands each thread a distinct buffer, tiles write disjoint output
  slices, and reductions (``dw``, BN sums) combine per-tile partials in
  fixed tile order so results are bit-identical to the serial schedule.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .common import conv3d_output_shape
from .gemm import GemmBackend, _padded
from .registry import register_backend
from .workspace import workspace

__all__ = ["FusedBackend", "kernel_threads"]

_UNIT = (1, 1, 1)

#: Target bytes for one tile's slice buffer (per thread).
TILE_ENV = "DISTMIS_KERNEL_TILE_MB"
DEFAULT_TILE_MB = 4.0

#: Tile thread-pool width (1 = serial; BLAS stays pinned separately).
THREADS_ENV = "DISTMIS_KERNEL_THREADS"

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _forget_pool_after_fork() -> None:
    # A forked child (a data-parallel replica, an execpool worker) has
    # none of the parent's tile threads: work queued on the inherited
    # pool would never run, so the child starts its own on demand.
    global _pool_lock, _pool, _pool_size
    _pool_lock = threading.Lock()
    _pool, _pool_size = None, 0


os.register_at_fork(after_in_child=_forget_pool_after_fork)


def kernel_threads() -> int:
    """Requested tile-parallelism width (``DISTMIS_KERNEL_THREADS``)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _tile_target_bytes() -> int:
    raw = os.environ.get(TILE_ENV, "").strip()
    try:
        mb = float(raw) if raw else DEFAULT_TILE_MB
    except ValueError:
        mb = DEFAULT_TILE_MB
    return max(1 << 16, int(mb * 1024 * 1024))


def _plan_tiles(n, K9, Do, Ho, Wo, itemsize):
    """Output-depth tile spans ``[(d0, d1), ...]``, or ``None`` when the
    whole slice buffer (``K9 = C*kh*kw`` rows per depth slice) already
    fits the tile target and tiling would only add gather-halo
    overhead."""
    per_d = n * K9 * Ho * Wo * itemsize
    target = _tile_target_bytes()
    if per_d * Do <= 2 * target:
        return None
    td = max(1, target // per_d)
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


def _release_stash(ws, ctx):
    """Return any stale stashed slice buffers in ``ctx`` to the arena."""
    if not ctx:
        return
    for _, _, cols in ctx.pop("cols_tiles", ()):
        ws.release(cols)
    ws.release(ctx.pop("cols", None))


def _map_tiles(fn, tiles):
    """Run ``fn`` over tile spans -- serially, or on the shared pool when
    ``DISTMIS_KERNEL_THREADS`` asks for it.  Results keep tile order."""
    width = kernel_threads()
    if width <= 1 or len(tiles) <= 1:
        return [fn(t) for t in tiles]
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size != width:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="distmis-tile")
            _pool_size = width
        pool = _pool
    return list(pool.map(fn, tiles))


class FusedBackend(GemmBackend):
    """Depth-sliced batched GEMMs with a fused Conv3D+BatchNorm+ReLU pair."""

    name = "fused"
    supports_fusion = True

    # -- depth-sliced conv3d ------------------------------------------------
    def conv3d_forward(self, x, w, b, stride, pad, ctx=None):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return super().conv3d_forward(x, w, b, stride, pad, ctx)
        n, c = x.shape[:2]
        co = w.shape[0]
        Do, Ho, Wo = conv3d_output_shape(x.shape[2:], kernel, stride, pad)
        K9 = c * kernel[1] * kernel[2]
        tiles = (_plan_tiles(n, K9, Do, Ho, Wo, x.dtype.itemsize)
                 or [(0, Do)])
        ws = workspace()
        _release_stash(ws, ctx)
        xp = _padded(ws, x, pad)
        y = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
        stash = [] if ctx is not None else None
        self._run_tiles(ws, xp, w, b, y, stride, tiles, stash=stash)
        if xp is not x:
            ws.release(xp)
        if stash:
            ctx["cols_tiles"] = stash
        return y

    def conv3d_backward(self, dy, x, w, stride, pad, with_bias, ctx=None,
                        need_dx=True):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return super().conv3d_backward(dy, x, w, stride, pad,
                                           with_bias, ctx)
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

        # The forward's stashed slice buffers (validated against this
        # call's geometry -- a stale ctx from a different config is
        # simply returned to the arena).
        stash = ctx.pop("cols_tiles", None) if ctx else None
        if stash is not None and not (
                stash
                and stash[0][0] == 0 and stash[-1][1] == Do
                and all(cols.shape == (n, (d1 - d0 - 1) * sd + kd, K9, HoWo)
                        and cols.dtype == x.dtype
                        for d0, d1, cols in stash)):
            for _, _, cols in stash:
                ws.release(cols)
            stash = None
        if ctx:
            ws.release(ctx.pop("cols", None))  # stale untiled stash
        dyc = np.ascontiguousarray(dy)

        # dw: for depth offset j, contract the slice range
        # ``cols2[:, j::sd]`` against the matching dy rows -- per-slice
        # GEMMs in the flipped orientation (K9 patch rows as M), with
        # per-tile partials summed in tile order (determinism).
        def dw_from(cols2, d0, d1):
            td = d1 - d0
            dyb = (dyc[:, :, d0:d1].reshape(n, co, td, HoWo)
                   .transpose(0, 2, 3, 1))  # (n, td, HoWo, co) view
            part = np.empty((kd, K9, co), dtype=x.dtype)
            for j in range(kd):
                slab = cols2[:, j : j + (td - 1) * sd + 1 : sd]
                part[j] = (np.matmul(slab, dyb)
                           .reshape(n * td, K9, co).sum(axis=0))
            return part

        if stash is not None:
            def dw_stashed(entry):
                d0, d1, cols2 = entry
                part = dw_from(cols2, d0, d1)
                ws.release(cols2)
                return part

            parts = _map_tiles(dw_stashed, stash)
        else:
            # No stash (eval-mode forward, or none ran): re-gather each
            # tile's slice buffer before contracting.
            xp = _padded(ws, x, pad)

            def dw_tile(span):
                d0, d1 = span
                S = (d1 - d0 - 1) * sd + kd
                cols2 = ws.acquire((n, S, K9, HoWo), x.dtype)
                _gather_slab2d(xp[:, :, d0 * sd : d0 * sd + S], (kh, kw),
                               stride[1:], cols2)
                part = dw_from(cols2, d0, d1)
                ws.release(cols2)
                return part

            parts = _map_tiles(dw_tile, tiles)
            if xp is not x:
                ws.release(xp)
        total = parts[0]
        for part in parts[1:]:
            total += part
        dw = np.ascontiguousarray(
            total.reshape(kd, c, kh, kw, co).transpose(4, 1, 0, 2, 3))
        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None

        if not need_dx:
            dx = None  # first-layer input carries no gradient
        elif stride == _UNIT and all(kk - 1 - pp >= 0 for kk, pp in
                                     zip(kernel, pad)):
            dx = self._dx_correlation_tiled(ws, dyc, w, pad, x.shape)
        else:
            dx = self._dx_scatter(ws, dyc.reshape(n, co, Do * HoWo), w,
                                  stride, pad, x.shape)
        return dx, dw, db

    @staticmethod
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

        def dx_tile(span):
            d0, d1 = span
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

        _map_tiles(dx_tile, tiles)
        if dyp is not dy:
            ws.release(dyp)
        return dx

    def _run_tiles(self, ws, xp, w5, b, y, stride, tiles,
                   relu=False, stats=False, stash=None):
        """Run every tile's depth-sliced GEMMs into its slice of ``y``;
        optionally apply bias/ReLU and/or return per-tile BN channel
        sums (computed on the batch-major scratch while it is
        cache-hot, before the transpose-copy into ``y``).  When
        ``stash`` is a list the slice buffers are kept (appended in
        tile order as ``(d0, d1, cols2)`` for the backward's dw GEMMs)
        instead of recycled."""
        n = xp.shape[0]
        co, _, kd, kh, kw = w5.shape
        Do, Ho, Wo = y.shape[2:]
        HoWo = Ho * Wo
        sd = stride[0]
        wk = _w_slices(w5)
        K9 = wk.shape[2]
        bias = None if b is None else b.reshape(1, 1, co, 1)

        def run(span):
            d0, d1 = span
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
            if stash is None:
                ws.release(cols2)
            if bias is not None:
                ybat += bias
            if relu:
                np.maximum(ybat, 0.0, out=ybat)
            sums = None
            if stats:  # channel sums while the scratch is cache-hot
                sums = (ybat.sum(axis=(0, 1, 3)),
                        np.einsum("ndcp,ndcp->c", ybat, ybat))
            np.copyto(
                y[:, :, d0:d1],
                ybat.reshape(n, td, co, Ho, Wo).transpose(0, 2, 1, 3, 4))
            ws.release(ybat)
            return sums, (d0, d1, cols2)

        results = _map_tiles(run, tiles)
        if stash is not None:
            stash.extend(entry for _, entry in results)
        return [sums for sums, _ in results]

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
            _release_stash(ws, ctx)
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

        # Training: conv into the stashed y_conv buffer, folding the BN
        # channel sums into the tile epilogue, then one affine+ReLU pass.
        _release_stash(ws, ctx)
        y_conv = ws.acquire((n, co, Do, Ho, Wo), x.dtype)
        stash = [] if ctx is not None else None
        sums = self._run_tiles(ws, xp, w, b, y_conv, stride, tiles,
                               stats=True, stash=stash)
        if xp is not x:
            ws.release(xp)
        total = sums[0][0]
        sq_total = sums[0][1]
        for s, ss in sums[1:]:
            total = total + s
            sq_total = sq_total + ss
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
                       count=count, scale=scale, shift=shift,
                       cols_tiles=stash)
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
        # is (ties at 0 get zero gradient either way), so the stashed
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

        # ctx still carries the forward's stashed slice buffers, which
        # the conv backward consumes for its dw GEMMs.
        dx, dw, db = self.conv3d_backward(y_conv, x, w, stride, pad,
                                          with_bias, ctx=ctx,
                                          need_dx=need_dx)
        ws.release(y_conv)
        return dx, dw, db, dgamma, dbeta

    # ctx management: GemmBackend.release_ctx releases every arena array
    # in the ctx ("cols", "y_conv", or a "cols_tiles" stash alike).


register_backend(FusedBackend())
