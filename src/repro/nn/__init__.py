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
from .initializers import (
    GlorotUniform,
    HeNormal,
    TruncatedNormal,
    get_initializer,
)
from .layers import (
    AvgPool3D,
    BatchNorm,
    Conv3D,
    ConvTranspose3D,
    Dropout,
    FusedConvBNReLU3D,
    GroupNorm,
    Identity,
    InstanceNorm,
    LeakyReLU,
    MaxPool3D,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from .losses import (
    BinaryCrossEntropy,
    ComboLoss,
    Loss,
    MulticlassSoftDiceLoss,
    QuadraticSoftDiceLoss,
    SoftDiceLoss,
    get_loss,
)
from .metrics import mean_multiclass_dice, multiclass_dice
from .metrics import (
    batch_dice,
    dice_coefficient,
    iou,
    precision,
    recall,
    soft_dice_coefficient,
    voxel_accuracy,
)
from .module import Module, Parameter, Sequential
from .summary import LayerInfo, format_summary, model_summary
from .optimizers import (
    SGD,
    Adam,
    Momentum,
    Optimizer,
    clip_grad_norm,
    get_optimizer,
)
from .schedules import (
    ConstantLR,
    CosineAnnealing,
    CyclicLR,
    ExponentialDecay,
    LinearWarmup,
    Schedule,
    StepDecay,
    linear_scaling_rule,
)
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
    "AvgPool3D",
    "BatchNorm",
    "GroupNorm",
    "InstanceNorm",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "Softmax",
    "Loss",
    "SoftDiceLoss",
    "QuadraticSoftDiceLoss",
    "BinaryCrossEntropy",
    "MulticlassSoftDiceLoss",
    "ComboLoss",
    "get_loss",
    "multiclass_dice",
    "mean_multiclass_dice",
    "dice_coefficient",
    "soft_dice_coefficient",
    "batch_dice",
    "iou",
    "precision",
    "recall",
    "voxel_accuracy",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "get_optimizer",
    "clip_grad_norm",
    "Schedule",
    "ConstantLR",
    "StepDecay",
    "ExponentialDecay",
    "CyclicLR",
    "CosineAnnealing",
    "LinearWarmup",
    "linear_scaling_rule",
    "TruncatedNormal",
    "GlorotUniform",
    "HeNormal",
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
