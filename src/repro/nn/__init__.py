"""``repro.nn`` -- a from-scratch NumPy deep-learning engine.

Stands in for TensorFlow 2.3 in the reproduction: channels-first 3D
convolutional layers with hand-derived backward passes, the paper's 3D
U-Net (:class:`~repro.nn.unet3d.UNet3D`), Dice losses, Adam, and cyclic
learning-rate schedules.  Gradients are verified by finite differences
(:mod:`repro.nn.gradcheck`).
"""

from . import functional, kernels
from .dtypes import (
    get_compute_dtype,
    resolve_dtype,
    set_compute_dtype,
    use_compute_dtype,
)
from .gradcheck import check_module_gradients, numeric_gradient, relative_error
from .kernels import (
    available_backends,
    get_backend,
    set_backend,
    use_backend,
    workspace,
    workspace_bytes,
)
from .initializers import TruncatedNormal, get_initializer
from .layers import (
    BatchNorm,
    Conv3D,
    ConvTranspose3D,
    FusedConvBNReLU3D,
    MaxPool3D,
    ReLU,
    Sigmoid,
)
from .losses import (
    BinaryCrossEntropy,
    Loss,
    QuadraticSoftDiceLoss,
    SoftDiceLoss,
    get_loss,
)
from .metrics import batch_dice, dice_coefficient
from .module import Module, Parameter, Sequential
from .summary import LayerInfo, format_summary, model_summary
from .optimizers import SGD, Adam, Optimizer
from .schedules import ConstantLR, CyclicLR, Schedule, linear_scaling_rule
from .unet3d import PAPER_INPUT_SHAPE, PAPER_OUTPUT_SHAPE, ConvBlock, UNet3D

__all__ = [
    "functional",
    "kernels",
    "get_backend",
    "set_backend",
    "use_backend",
    "available_backends",
    "workspace",
    "workspace_bytes",
    "get_compute_dtype",
    "set_compute_dtype",
    "use_compute_dtype",
    "resolve_dtype",
    "Module",
    "Parameter",
    "Sequential",
    "Conv3D",
    "ConvTranspose3D",
    "FusedConvBNReLU3D",
    "MaxPool3D",
    "BatchNorm",
    "ReLU",
    "Sigmoid",
    "Loss",
    "SoftDiceLoss",
    "QuadraticSoftDiceLoss",
    "BinaryCrossEntropy",
    "get_loss",
    "dice_coefficient",
    "batch_dice",
    "Optimizer",
    "SGD",
    "Adam",
    "Schedule",
    "ConstantLR",
    "CyclicLR",
    "linear_scaling_rule",
    "TruncatedNormal",
    "get_initializer",
    "ConvBlock",
    "UNet3D",
    "PAPER_INPUT_SHAPE",
    "PAPER_OUTPUT_SHAPE",
    "check_module_gradients",
    "numeric_gradient",
    "relative_error",
    "LayerInfo",
    "model_summary",
    "format_summary",
]
