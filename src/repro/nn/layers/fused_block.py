"""Fused Conv3D -> BatchNorm -> ReLU composite layer.

The paper's U-Net applies this exact triple at every resolution step
(Section III-A), and the unfused chain materialises four full volumes
per stage (conv output, ``x_hat``, BN output, ReLU mask).  On a
fusion-capable backend (``fused``) this layer routes the triple through
one :func:`repro.nn.functional.conv3d_bn_relu_forward` call that folds
the BN affine into the GEMM epilogue and applies ReLU in place.

The layer *contains* ordinary :class:`~repro.nn.layers.conv3d.Conv3D`,
:class:`~repro.nn.layers.batchnorm.BatchNorm` and
:class:`~repro.nn.layers.activations.ReLU` children (named ``conv`` /
``bn`` / ``act``), so parameters, state dicts, ``named_modules`` walks
and the model summary all see the familiar leaves.  Fusion is a runtime
routing decision re-taken every forward; the sequential child chain is
used whenever fusion cannot preserve semantics:

* the active backend lacks ``supports_fusion`` (the ``reference``
  test oracle);
* synchronous BN is wired (``bn.stats_reducer`` set) -- the fused kernel
  computes local statistics only;
* a child ``forward`` has been instrumented per-instance (the model
  summary and the profiler hook leaf forwards via ``__dict__``) -- the
  hooks must keep firing.

Both routes produce the same arithmetic to float64 round-off, which the
parity matrix pins at rtol 1e-9 (``tests/unit/nn/test_fused_block.py``).
"""

from __future__ import annotations

import numpy as np

from ..functional import (
    conv3d_bn_relu_backward,
    conv3d_bn_relu_forward,
    fused_conv_bn_relu_supported,
    release_conv_ctx,
)
from ..module import Module
from .activations import ReLU
from .batchnorm import BatchNorm
from .conv3d import Conv3D

__all__ = ["FusedConvBNReLU3D"]


class FusedConvBNReLU3D(Module):
    """``relu(batchnorm(conv3d(x)))`` with backend-level fusion when the
    active kernel backend supports it, and a transparent fall-back to
    the equivalent ``conv -> bn -> act`` child chain when it does not.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size=3,
        stride=1,
        padding="same",
        use_bias: bool = True,
        momentum: float = 0.9,
        eps: float = 1e-5,
        kernel_initializer=None,
        rng: np.random.Generator | None = None,
        dtype=None,
        input_grad: bool = True,
    ):
        super().__init__()
        self.conv = Conv3D(
            in_channels, out_channels, kernel_size, stride=stride,
            padding=padding, use_bias=use_bias,
            kernel_initializer=kernel_initializer, rng=rng, dtype=dtype)
        self.bn = BatchNorm(out_channels, momentum=momentum, eps=eps,
                            dtype=dtype)
        self.act = ReLU()
        self.out_channels = int(out_channels)
        #: Set False for a network's *first* layer (its input carries no
        #: gradient): the fused backward then skips the dx computation
        #: -- the largest gather of the layer's backward pass -- and
        #: returns ``None``.  The sequential fall-back route still
        #: computes and returns dx.  The network-level contract is
        #: :class:`~repro.nn.unet3d.UNet3D`'s: its ``backward`` returns
        #: ``dx`` only when built with ``input_grad=True``, on every
        #: backend.
        self.input_grad = bool(input_grad)
        self._route: str | None = None
        self._x: np.ndarray | None = None
        self._ctx: dict | None = None

    # -- routing ------------------------------------------------------------
    def fusion_active(self) -> bool:
        """Whether the *next* forward will take the fused kernel path."""
        return (
            fused_conv_bn_relu_supported()
            and self.bn.stats_reducer is None
            # Per-instance instrumentation (model summary, profiler
            # hooks) replaces child forwards via __dict__; those hooks
            # only fire on the sequential route.
            and "forward" not in self.conv.__dict__
            and "forward" not in self.bn.__dict__
            and "forward" not in self.act.__dict__
        )

    # -- computation --------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        release_conv_ctx(self._ctx)  # forward without backward: reclaim
        self._ctx = None
        if not self.fusion_active():
            self._route = "sequential"
            return self.act(self.bn(self.conv(x)))

        self._route = "fused"
        x = np.asarray(x, dtype=self.conv.dtype)
        self._x = x if self.training else None
        self._ctx = {} if self.training else None
        bn = self.bn
        y, mean, var = conv3d_bn_relu_forward(
            x,
            self.conv.w.value,
            self.conv.b.value if self.conv.use_bias else None,
            bn.gamma.value,
            bn.beta.value,
            bn.running_mean.value,
            bn.running_var.value,
            eps=bn.eps,
            stride=self.conv.stride,
            pad=self.conv.padding,
            training=self.training,
            ctx=self._ctx,
        )
        if self.training:
            # Same running-statistics update BatchNorm.forward applies.
            m = bn.momentum
            bn.running_mean.value = m * bn.running_mean.value + (1 - m) * mean
            bn.running_var.value = m * bn.running_var.value + (1 - m) * var
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._route == "sequential":
            self._route = None
            return self.conv.backward(self.bn.backward(self.act.backward(dy)))
        if self._route != "fused" or self._x is None:
            raise RuntimeError(
                "backward called before a training-mode forward")
        self._route = None
        ctx, self._ctx = self._ctx, None
        x, self._x = self._x, None
        dx, dw, db, dgamma, dbeta = conv3d_bn_relu_backward(
            dy, x, self.conv.w.value, self.bn.gamma.value,
            stride=self.conv.stride, pad=self.conv.padding,
            with_bias=self.conv.use_bias, ctx=ctx,
            need_dx=self.input_grad)
        release_conv_ctx(ctx)
        self.conv.w.grad += dw
        if self.conv.use_bias:
            self.conv.b.grad += db
        self.bn.gamma.grad += dgamma
        self.bn.beta.grad += dbeta
        return dx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedConvBNReLU3D({self.conv.in_channels}->"
            f"{self.out_channels}, k={self.conv.kernel}, "
            f"fused={self.fusion_active()})"
        )
