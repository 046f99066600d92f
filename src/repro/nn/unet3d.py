"""The 3D U-Net architecture of the paper (Fig 2).

Analysis (encoder) and synthesis (decoder) paths with four resolution
steps; each step runs two 3x3x3 convolutions, each followed by batch
normalisation and a ReLU (Section III-A).  Down-sampling is 2x2x2 max
pooling with stride two; up-sampling is a 2x2x2 transposed convolution
with stride two, concatenated with the equal-resolution encoder features.
The number of filters at resolution step ``s`` (1-based) is
``base_filters * 2**(s-1)`` -- 8, 16, 32, 64 with the paper's
``base_filters = 8``.  A final 1x1x1 convolution plus sigmoid produces
the binary whole-tumour mask.

Two synthesis-path variants are provided, because the paper's text and
its reported parameter count disagree slightly:

* ``transpose_halves=True`` (default; matches the *text*: "the number of
  filters for the synthesis path is halved") -- each up-convolution
  halves the channel count, giving **352,513** parameters (including the
  BN moving statistics, as Keras' ``count_params`` does).
* ``transpose_halves=False`` -- each up-convolution preserves channels,
  giving **410,361** parameters, the closest structural variant to the
  paper's reported **406,793**.

EXPERIMENTS.md records the discrepancy; everything else in the
reproduction is insensitive to it.
"""

from __future__ import annotations

import numpy as np

from .dtypes import resolve_dtype
from .initializers import TruncatedNormal
from .layers.activations import ReLU, Sigmoid
from .layers.conv3d import Conv3D
from .layers.conv_transpose3d import ConvTranspose3D
from .layers.fused_block import FusedConvBNReLU3D
from .layers.pooling import MaxPool3D
from .module import Module, Sequential

__all__ = ["ConvBlock", "UNet3D", "PAPER_INPUT_SHAPE", "PAPER_OUTPUT_SHAPE"]

# Paper Section III-A: channels-first 4 x 240 x 240 x 152 input,
# 1 x 240 x 240 x 152 output.
PAPER_INPUT_SHAPE = (4, 240, 240, 152)
PAPER_OUTPUT_SHAPE = (1, 240, 240, 152)


class ConvBlock(Module):
    """Two (Conv3D 3x3x3 -> BatchNorm -> ReLU) stages (Section III-A).

    With BatchNorm each stage is a
    :class:`~repro.nn.layers.fused_block.FusedConvBNReLU3D` composite:
    on a fusion-capable backend the whole triple runs as one fused
    kernel call, and on every other backend (or under sync-BN /
    instrumentation) it transparently degrades to the sequential
    conv/bn/act chain with identical arithmetic.  Without BatchNorm
    (``use_batchnorm=False``) each stage is a plain conv -> ReLU.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        use_batchnorm: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
        input_grad: bool = True,
    ):
        super().__init__()
        dtype = resolve_dtype(dtype)
        init = TruncatedNormal(dtype=dtype)
        layers: list[Module] = []
        if use_batchnorm:
            # ``input_grad=False`` (the network's first block) lets the
            # fused backward skip the dx of the first stage entirely.
            layers.append(FusedConvBNReLU3D(
                in_channels, out_channels, 3, padding="same",
                kernel_initializer=init, rng=rng, dtype=dtype,
                input_grad=input_grad))
            layers.append(FusedConvBNReLU3D(
                out_channels, out_channels, 3, padding="same",
                kernel_initializer=init, rng=rng, dtype=dtype))
        else:
            for ci in (in_channels, out_channels):
                layers.append(
                    Conv3D(ci, out_channels, 3, padding="same",
                           kernel_initializer=init, rng=rng, dtype=dtype)
                )
                layers.append(ReLU())
        self.body = Sequential(*layers)
        self.out_channels = out_channels

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body(x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.body.backward(dy)


class UNet3D(Module):
    """Parametric 3D U-Net (paper defaults: 4 steps, base 8 filters).

    Parameters
    ----------
    in_channels:
        Input modalities (4 for the MSD brain-tumour task: FLAIR, T1w,
        T1gd, T2w).
    out_channels:
        Output labels (1: whole tumour vs background).
    base_filters:
        Filters at the first resolution step (paper: 8).
    depth:
        Number of resolution steps (paper: 4 => 3 poolings, so spatial
        dims must be divisible by ``2**(depth-1)``).
    transpose_halves:
        Synthesis-path variant; see the module docstring.
    use_batchnorm:
        Disable to obtain a purely deterministic network for the exact
        data-parallel equivalence tests.
    input_grad:
        Whether :meth:`backward` returns the gradient with respect to
        the network input.  Training never needs it, so by default
        ``backward`` returns ``None`` on every backend, and the
        fused kernel path skips the first block's input gradient.  Set
        True to get ``dx`` (gradient checks, input-sensitivity probes).
    """

    def __init__(
        self,
        in_channels: int = 4,
        out_channels: int = 1,
        base_filters: int = 8,
        depth: int = 4,
        transpose_halves: bool = True,
        use_batchnorm: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
        input_grad: bool = False,
    ):
        super().__init__()
        if depth < 2:
            raise ValueError("UNet3D needs depth >= 2")
        if base_filters < 1:
            raise ValueError("base_filters must be >= 1")
        self.dtype = resolve_dtype(dtype)
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.depth = int(depth)
        self.base_filters = int(base_filters)
        self.transpose_halves = bool(transpose_halves)
        self.input_grad = bool(input_grad)

        filters = [base_filters * 2**s for s in range(depth)]
        self.filters = filters

        # Analysis path: depth blocks, pooling between them.
        ci = in_channels
        self.enc_blocks: list[ConvBlock] = []
        self.pools: list[MaxPool3D] = []
        for s in range(depth):
            blk = ConvBlock(ci, filters[s], use_batchnorm, rng,
                            dtype=self.dtype,
                            input_grad=(s > 0 or self.input_grad))
            setattr(self, f"enc{s}", blk)
            self.enc_blocks.append(blk)
            ci = filters[s]
            if s < depth - 1:
                pool = MaxPool3D(2)
                setattr(self, f"pool{s}", pool)
                self.pools.append(pool)

        # Synthesis path.
        init = TruncatedNormal(dtype=self.dtype)
        self.up_convs: list[ConvTranspose3D] = []
        self.dec_blocks: list[ConvBlock] = []
        cur = filters[-1]
        for s in range(depth - 2, -1, -1):
            up_out = filters[s] if transpose_halves else cur
            up = ConvTranspose3D(cur, up_out, 2, 2, kernel_initializer=init,
                                 rng=rng, dtype=self.dtype)
            setattr(self, f"up{s}", up)
            self.up_convs.append(up)
            blk = ConvBlock(up_out + filters[s], filters[s], use_batchnorm,
                            rng, dtype=self.dtype)
            setattr(self, f"dec{s}", blk)
            self.dec_blocks.append(blk)
            cur = filters[s]

        self.head = Conv3D(cur, out_channels, 1, padding="valid",
                           kernel_initializer=init, rng=rng,
                           dtype=self.dtype)
        self.out_act = Sigmoid()

        self._skip_channels: list[int] | None = None

    def min_divisor(self) -> int:
        """Spatial dims must be divisible by this (2 ** #poolings)."""
        return 2 ** (self.depth - 1)

    def validate_input_shape(self, shape: tuple[int, ...]) -> None:
        """Raise with a helpful message when the volume cannot be pooled."""
        if len(shape) != 5:
            raise ValueError(f"expected (N,C,D,H,W), got {shape}")
        if shape[1] != self.in_channels:
            raise ValueError(
                f"model expects {self.in_channels} channels, input has {shape[1]}"
            )
        div = self.min_divisor()
        for dim in shape[2:]:
            if dim % div:
                raise ValueError(
                    f"spatial dim {dim} not divisible by {div}; crop the "
                    f"volume first (the paper crops 155 -> 152 slices)"
                )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.validate_input_shape(x.shape)
        skips: list[np.ndarray] = []
        for s in range(self.depth - 1):
            x = self.enc_blocks[s](x)
            skips.append(x)
            x = self.pools[s](x)
        x = self.enc_blocks[-1](x)

        self._skip_channels = []
        for i, s in enumerate(range(self.depth - 2, -1, -1)):
            up = self.up_convs[i](x)
            self._skip_channels.append(up.shape[1])
            x = np.concatenate([up, skips[s]], axis=1)
            x = self.dec_blocks[i](x)

        x = self.head(x)
        return self.out_act(x)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        if self._skip_channels is None:
            raise RuntimeError("backward called before forward")
        dy = self.out_act.backward(dy)
        dy = self.head.backward(dy)

        # Walk the synthesis path in reverse, peeling concat gradients.
        dskips: dict[int, np.ndarray] = {}
        for i in range(len(self.dec_blocks) - 1, -1, -1):
            s = self.depth - 2 - i  # encoder level this decoder stage joins
            dcat = self.dec_blocks[i].backward(dy)
            c = self._skip_channels[i]
            dup, dskip = dcat[:, :c], dcat[:, c:]
            dskips[s] = dskip
            dy = self.up_convs[i].backward(np.ascontiguousarray(dup))

        # Bottom block, then the analysis path in reverse.
        dy = self.enc_blocks[-1].backward(dy)
        for s in range(self.depth - 2, -1, -1):
            dy = self.pools[s].backward(dy)
            dy = dy + dskips[s]
            dy = self.enc_blocks[s].backward(dy)

        self._skip_channels = None
        return dy if self.input_grad else None

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass (eval mode, mode restored afterwards)."""
        was_training = self.training
        self.eval()
        try:
            return self.forward(x)
        finally:
            self.train(was_training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UNet3D(in={self.in_channels}, out={self.out_channels}, "
            f"filters={self.filters}, params={self.num_params()})"
        )
