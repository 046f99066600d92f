"""Convolution compute backends: registry, workspace arena, kernels.

Importing this package registers the two built-in backends: ``fused``,
the production kernels every model runs on, and ``reference``, the
einsum oracle the tests check it against.
"""

from __future__ import annotations

from .common import (
    conv3d_output_shape,
    conv_transpose3d_output_shape,
    pad_volume,
    triple,
)
from .registry import (
    KernelBackend,
    available_backends,
    consume_kernel_seconds,
    get_backend,
    kernel_seconds_snapshot,
    record_kernel_seconds,
    register_backend,
    set_backend,
    use_backend,
)
from .workspace import (
    WorkspaceArena,
    set_workspace_limit,
    workspace,
    workspace_bytes,
)

# Backend registration side effects.
from . import fused as _fused  # noqa: F401,E402
from . import reference as _reference  # noqa: F401,E402

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "record_kernel_seconds",
    "consume_kernel_seconds",
    "kernel_seconds_snapshot",
    "WorkspaceArena",
    "workspace",
    "set_workspace_limit",
    "workspace_bytes",
    "triple",
    "pad_volume",
    "conv3d_output_shape",
    "conv_transpose3d_output_shape",
]
