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
* **depth streaming** -- every pass walks the padded input depth once,
  in chunks of slices whose gathered buffer fits :data:`CHUNK_BYTES`
  (about half a core's L2).  Each chunk is padded into an arena slab and
  gathered exactly once -- no halo shared with the next chunk, and no
  full-volume padded copy -- then each depth tap ``j`` runs one batched
  GEMM over the chunk's slices and adds into output slice
  ``(s - j) / sd`` of a small window of partial output slices.  A slice
  is flushed (bias, ReLU or BN partials, then the transpose-copy into
  the output layout) as soon as its last tap is in.  The same walk
  serves the forward and both backward gradients.  Nothing the forward
  gathered outlives the forward.
* **one walk per backward** -- a unit-stride backward that needs the
  input gradient walks only the padded ``dy``: the mirrored lowering
  (flipped kernel, channels swapped) gives ``dx``, and each gathered
  slice range of tap ``j`` also meets the matching slices of ``x`` in
  one more per-slice GEMM, ``x[:, d] @ cols^T``, whose product is the
  weight gradient of kernel depth offset ``kd-1-j``, flipped in h/w.
  Only strided convs and a first layer (``need_dx=False``: no ``dx``
  GEMMs to share a walk with) walk the padded ``x`` for ``dw``
  (each slice's ``cols2 @ dy^T`` per tap); a strided input gradient
  takes the col2im form (GEMM ``w^T @ dy``, then a scatter-add per
  kernel offset).
* **chunk-invariant results** -- every output slice adds its taps in
  ``j`` order whatever the chunking, the BN channel sums are kept per
  (sample, output depth slice) and the weight gradient's per-slice GEMM
  products land in one ``(kd, N, D, ...)`` buffer, reduced once at the
  end.  :data:`CHUNK_BYTES` trades speed against memory, never a bit
  of any result.
* **1x1x1 convolutions** (the segmentation head) are one batched GEMM
  on the input itself, which already is the patches matrix.
* **transposed conv** -- one GEMM producing the offset columns, then a
  ``kd*kh*kw``-step scatter (forward) / gather (backward).
* **fused Conv3D+BatchNorm+ReLU** (``supports_fusion``) -- training
  forward accumulates the BN channel sums in the flush epilogue while
  each output slice is cache-hot, then applies ``relu(scale*y + shift)``
  in one elementwise pass; eval forward folds the running statistics
  into the weights (``w' = w*scale``, ``b' = b*scale + shift``) and
  applies ReLU per flushed slice, one pass total.  The backward
  reconstructs the BN input gradient without ever materialising
  ``x_hat``: with ``dyr = dy * (y > 0)`` the conv-output gradient is the
  channel-affine ``A*dyr + B*y_conv + C`` (coefficients from the
  standard BN gradient with ``x_hat`` substituted by
  ``(y_conv - mean) * inv_std``), applied in place on the conv output
  ``y_conv``, the one volume the training forward keeps in ``ctx`` for
  its backward.  ``y_conv`` is an ordinary array the layer's ``ctx``
  owns, not arena scratch.  Per U-Net stage this skips the ``x_hat``
  volume, the BN output volume and the ReLU mask the unfused layer
  chain materialises.

All scratch (padded slabs, slice buffers, output windows, BN partials)
but one is checked out of the :mod:`~repro.nn.kernels.workspace` arena
and released before the kernel call returns, so nothing stays checked
out between calls and the blocks are recycled across them.  The
exception is the one-walk backward's weight-gradient products, a plain
array freed with the call: checked out beside that walk's own scratch,
they made best fit hand out larger blocks and raised the arena's peak.
Outputs are always freshly allocated, never views into the arena.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .common import conv3d_output_shape, conv_transpose3d_output_shape
from .registry import KernelBackend, register_backend
from .workspace import workspace

__all__ = ["FusedBackend"]

_UNIT = (1, 1, 1)

#: Byte budget of one chunk's slice buffer: half of a 2 MiB per-core
#: L2, so a chunk and its GEMM output fit together.  A pass whose whole
#: slice buffer is within twice this gathers it as one chunk
#: (:func:`_chunk_depth`).
CHUNK_BYTES = 1024 * 1024


def _chunk_depth(x, kernel, stride, out_shape):
    """Padded input slices per chunk for a conv of ``x`` into
    ``out_shape``: every slice the output reads when their slice buffer
    is within twice :data:`CHUNK_BYTES`, else as many as one budget
    holds (at least one)."""
    n, c = x.shape[:2]
    kd, kh, kw = kernel
    Do, Ho, Wo = out_shape
    per_slice = n * c * kh * kw * Ho * Wo * x.dtype.itemsize
    S = (Do - 1) * stride[0] + kd
    if per_slice * S <= 2 * CHUNK_BYTES:
        return S
    return max(1, CHUNK_BYTES // per_slice)


def _pad_chunk(x, s0, pad, slab):
    """Fill ``slab`` ``(N, C, g, Hp, Wp)`` with the padded depth slices
    ``s0 .. s0+g-1`` of ``x``.  Only the interior is written: the H/W
    margins must already be zero."""
    pd, ph, pw = pad
    D, H, W = x.shape[2:]
    g = slab.shape[2]
    lo = min(max(pd - s0, 0), g)
    hi = min(max(pd + D - s0, 0), g)
    inner = slab[:, :, :, ph : ph + H, pw : pw + W]
    inner[:, :, :lo].fill(0.0)
    inner[:, :, hi:].fill(0.0)
    inner[:, :, lo:hi] = x[:, :, s0 + lo - pd : s0 + hi - pd]


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


def _taps(ws, x, kernel, stride, pad, out_shape):
    """Walk the padded depth of ``x`` once, in chunks of
    :func:`_chunk_depth` slices: pad each chunk into an arena slab,
    gather it into the slice buffer, then yield ``(j, d0, d1, cols)``
    for each depth tap ``j`` in order -- output slices ``d0 .. d1-1``
    read tap ``j`` from the gathered slices ``cols``
    ``(N, d1-d0, C*kh*kw, Ho*Wo)``.  Every padded slice the output
    reads is padded and gathered exactly once: no halo, and no
    full-volume padded copy."""
    n, c, D, H, W = x.shape
    kd, kh, kw = kernel
    sd = stride[0]
    Do, Ho, Wo = out_shape
    S = (Do - 1) * sd + kd
    G = _chunk_depth(x, kernel, stride, out_shape)
    cols2 = ws.acquire((n, G, c * kh * kw, Ho * Wo), x.dtype)
    slab = None
    if any(pad):
        ph, pw = pad[1:]
        slab = ws.acquire((n, c, G, H + 2 * ph, W + 2 * pw), x.dtype)
        # the margins stay zero: _pad_chunk writes only the interior
        slab[..., :ph, :].fill(0.0)
        slab[..., ph + H :, :].fill(0.0)
        slab[..., :pw].fill(0.0)
        slab[..., pw + W :].fill(0.0)
    try:
        for s0 in range(0, S, G):
            g = min(G, S - s0)
            if slab is None:
                chunk = x[:, :, s0 : s0 + g]
            else:
                chunk = slab[:, :, :g]
                _pad_chunk(x, s0, pad, chunk)
            cols = cols2[:, :g]
            _gather_slab2d(chunk, (kh, kw), stride[1:], cols)
            for j in range(kd):
                d0 = max(0, -((j - s0) // sd))  # first d*sd + j >= s0
                d1 = min(Do, (s0 + g - 1 - j) // sd + 1)
                if d0 < d1:
                    a = d0 * sd + j - s0
                    yield (j, d0, d1,
                           cols[:, a : a + (d1 - d0 - 1) * sd + 1 : sd])
    finally:
        ws.release(slab)
        ws.release(cols2)


def _conv_stream(ws, x, w5, b, y, stride, pad, relu=False, stats=None,
                 wgrad=None):
    """Stream :func:`_taps` through the per-tap GEMMs into ``y``.

    Tap ``j`` of output slice ``d`` lands in a window of partial output
    slices -- tap 0 assigns, later taps add in ``j`` order -- so every
    slice sums its taps exactly as a whole-volume pass would.  A slice
    is flushed once its last tap is in: bias and/or ReLU, its BN channel
    sums and sums of squares per (sample, depth slice) into ``stats``
    ``(2, n, Do, co)`` (on the batch-major window while it is
    cache-hot), then the transpose-copy into ``y``; the partial tail
    moves to the window's front.

    ``wgrad`` ``(xs, prods)`` (unit stride only) also contracts each
    tap's gathered slices against the matching slices of ``xs``
    ``(n, Do, C', Ho*Wo)``: per output slice ``d`` the product
    ``xs[:, d] @ cols[:, d]^T`` lands in ``prods[kd-1-j][:, d]``
    (:meth:`FusedBackend.conv3d_backward` reads the weight gradient
    off them)."""
    n = x.shape[0]
    co, _, kd = w5.shape[:3]
    Do, Ho, Wo = y.shape[2:]
    sd = stride[0]
    wk = _w_slices(w5)
    bias = None if b is None else b.reshape(1, 1, co, 1)
    G = _chunk_depth(x, w5.shape[2:], stride, y.shape[2:])
    win = ws.acquire((n, min(Do, -(-(G + kd - 1) // sd)), co, Ho * Wo),
                     y.dtype)
    tmp = (ws.acquire((n, min(Do, -(-G // sd)), co, Ho * Wo), y.dtype)
           if kd > 1 else None)
    base = top = 0  # win[:, 0] holds output slice base; tap 0 reached top
    for j, d0, d1, cols in _taps(ws, x, w5.shape[2:], stride, pad,
                                 y.shape[2:]):
        if wgrad is not None:
            xs, prods = wgrad
            np.matmul(xs[:, d0:d1], cols.transpose(0, 1, 3, 2),
                      out=prods[kd - 1 - j][:, d0:d1])
        dst = win[:, d0 - base : d1 - base]
        if j == 0:
            np.matmul(wk[0], cols, out=dst)
            top = d1
        else:
            part = tmp[:, : d1 - d0]
            np.matmul(wk[j], cols, out=part)
            np.add(dst, part, out=dst)
        if j < kd - 1:
            continue
        done = win[:, : d1 - base]  # output slices base .. d1-1
        if bias is not None:
            done += bias
        if relu:
            np.maximum(done, 0.0, out=done)
        if stats is not None:
            done.sum(axis=3, out=stats[0][:, base:d1])
            np.einsum("ndcp,ndcp->ndc", done, done,
                      out=stats[1][:, base:d1])
        np.copyto(y[:, :, base:d1],
                  done.reshape(n, d1 - base, co, Ho, Wo)
                  .transpose(0, 2, 1, 3, 4))
        np.copyto(win[:, : top - d1], win[:, d1 - base : top - base])
        base = d1
    ws.release(tmp)
    ws.release(win)


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


class FusedBackend(KernelBackend):
    """Depth-sliced batched GEMMs with a fused Conv3D+BatchNorm+ReLU pair."""

    name = "fused"
    supports_fusion = True

    # -- depth-sliced conv3d ------------------------------------------------
    def conv3d_forward(self, x, w, b, stride, pad):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return _pointwise_forward(x, w, b)
        Do, Ho, Wo = conv3d_output_shape(x.shape[2:], kernel, stride, pad)
        y = np.empty((x.shape[0], w.shape[0], Do, Ho, Wo), dtype=x.dtype)
        _conv_stream(workspace(), x, w, b, y, stride, pad)
        return y

    def conv3d_backward(self, dy, x, w, stride, pad, with_bias,
                        need_dx=True):
        kernel = w.shape[2:]
        if kernel == _UNIT and stride == _UNIT and pad == (0, 0, 0):
            return _pointwise_backward(dy, x, w, with_bias)
        n, c, D, H, W = x.shape
        co = w.shape[0]
        kd, kh, kw = kernel
        Do, Ho, Wo = dy.shape[2:]
        ws = workspace()
        dyc = np.ascontiguousarray(dy)
        db = dy.sum(axis=(0, 2, 3, 4)) if with_bias else None

        bpad = tuple(kk - 1 - pp for kk, pp in zip(kernel, pad))
        if need_dx and stride == _UNIT and min(bpad) >= 0:
            # One walk over the padded dy: the mirrored lowering (a
            # unit-stride conv with the flipped kernel, channels
            # swapped) gives dx, and the same gathered slices give dw.
            # Gathered row (o, a, b) of tap j at input position q is
            # dy[o, q - t + pad] with t = (kd-1-j, kh-1-a, kw-1-b), so
            # x[:, q] against it is the dw product of kernel offset t:
            # one per-slice GEMM into slot kd-1-j, summed once at the
            # end (chunk-invariant) and flipped back in h/w.  prods is
            # a plain array, not arena scratch: checked out, it would
            # grow the arena's blocks past this walk's own peak.
            dx = np.empty(x.shape, dtype=x.dtype)
            prods = np.empty((kd, n, D, c, co * kh * kw), dtype=x.dtype)
            xs = (np.ascontiguousarray(x).reshape(n, c, D, H * W)
                  .transpose(0, 2, 1, 3))  # (n, D, c, HW) view
            _conv_stream(ws, dyc,
                         w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4),
                         None, dx, _UNIT, bpad, wgrad=(xs, prods))
            total = prods.reshape(kd, n * D, c, co * kh * kw).sum(axis=1)
            dw = np.ascontiguousarray(
                total.reshape(kd, c, co, kh, kw)[:, :, :, ::-1, ::-1]
                .transpose(2, 1, 0, 3, 4))
            return dx, dw, db

        # Strided, or no dx (the first layer): stream the padded input
        # and, per depth tap j, contract the gathered slices against
        # the matching dy rows -- per-slice GEMMs in the flipped
        # orientation (K9 patch rows as M) written into one per-slice
        # product buffer, summed once at the end, so the chunking never
        # changes the bits.
        K9 = c * kh * kw
        dyb = (dyc.reshape(n, co, Do, Ho * Wo)
               .transpose(0, 2, 3, 1))  # (n, Do, HoWo, co) view
        prods = ws.acquire((kd, n, Do, K9, co), x.dtype)
        for j, d0, d1, cols in _taps(ws, x, kernel, stride, pad,
                                     dy.shape[2:]):
            np.matmul(cols, dyb[:, d0:d1], out=prods[j][:, d0:d1])
        total = prods.reshape(kd, n * Do, K9, co).sum(axis=1)
        ws.release(prods)
        dw = np.ascontiguousarray(
            total.reshape(kd, c, kh, kw, co).transpose(4, 1, 0, 2, 3))
        if not need_dx:
            dx = None  # first-layer input carries no gradient
        else:
            dx = _dx_scatter(ws, dyc.reshape(n, co, Do * Ho * Wo), w,
                             stride, pad, x.shape)
        return dx, dw, db

    # -- fused Conv3D + BatchNorm + ReLU ------------------------------------
    def conv3d_bn_relu_forward(self, x, w, b, gamma, beta, running_mean,
                               running_var, eps, stride, pad, training,
                               ctx=None):
        ws = workspace()
        n = x.shape[0]
        co = w.shape[0]
        Do, Ho, Wo = conv3d_output_shape(x.shape[2:], w.shape[2:], stride,
                                         pad)

        if not training:
            # Running stats are constants: fold BN into the weights and
            # finish each flushed slice with an in-place ReLU -- one
            # pass total.
            inv_std = 1.0 / np.sqrt(running_var + eps)
            scale = gamma * inv_std
            shift = beta - running_mean * scale
            wf = w * scale.reshape(-1, 1, 1, 1, 1)
            bf = shift if b is None else b * scale + shift
            y = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
            _conv_stream(ws, x, wf, bf, y, stride, pad, relu=True)
            return y, running_mean, running_var

        # Training: conv into the y_conv buffer the backward keeps,
        # folding the BN channel sums into the flush epilogue, then one
        # affine+ReLU pass.
        y_conv = np.empty((n, co, Do, Ho, Wo), dtype=x.dtype)
        stats = ws.acquire((2, n, Do, co), x.dtype)
        _conv_stream(ws, x, w, b, y_conv, stride, pad, stats=stats)
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


register_backend(FusedBackend())
