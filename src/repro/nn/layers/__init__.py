"""Layer zoo for the NumPy deep-learning engine."""

from .activations import ReLU, Sigmoid
from .batchnorm import BatchNorm
from .conv3d import Conv3D
from .conv_transpose3d import ConvTranspose3D
from .fused_block import FusedConvBNReLU3D
from .pooling import MaxPool3D

__all__ = [
    "Conv3D",
    "FusedConvBNReLU3D",
    "ConvTranspose3D",
    "MaxPool3D",
    "BatchNorm",
    "ReLU",
    "Sigmoid",
]
