"""Compute-backend registry for the convolution kernels.

Every 3D convolution in the model dispatches through one active
:class:`KernelBackend`:

* ``fused`` (the production backend) -- depth-sliced batched GEMMs,
  streamed over the input depth in cache-sized chunks,
  plus a fused Conv3D+BatchNorm+ReLU forward/backward
  (``supports_fusion``).
* ``reference`` -- the original ``sliding_window_view`` + ``einsum``
  kernels, kept as the ground truth ``fused`` is cross-validated
  against (gradcheck + allclose parity tests).

``fused`` is active unless :func:`set_backend` / :func:`use_backend`
install another; the tests use them to run the ``reference`` oracle.

The module also keeps the per-backend kernel-seconds ledger:
:mod:`repro.nn.functional` stamps every dispatched call with two
``perf_counter`` reads, and :class:`~repro.raysim.sgd.DataParallelTrainer`
drains the ledger into the ``kernel_seconds_total{backend,op}`` counter
after each optimizer step, so the profiler can split its ``compute``
bucket by backend and operation.
"""

from __future__ import annotations

import contextlib
import threading

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
]

DEFAULT_BACKEND = "fused"


class KernelBackend:
    """Interface every compute backend implements.

    All methods receive *normalised* arguments: ``stride``/``pad`` are
    3-tuples and shapes have been validated by
    :mod:`repro.nn.functional`.  Only the fused Conv3D+BN+ReLU pair
    takes a ``ctx``: a mutable dict owned by the calling layer, where
    the training forward keeps the conv output and batch statistics for
    the matching backward call.  Everything in ``ctx`` is an ordinary
    array the dict owns, so dropping the dict frees it.  Plain and
    transposed convolutions keep nothing between forward and backward.
    Outputs must be freshly allocated arrays -- never views into cached
    scratch -- and no scratch checkout may outlive the call.
    """

    name: str = "abstract"

    #: True when the backend implements the fused Conv3D+BN+ReLU pair
    #: below; layers consult this (via
    #: :func:`repro.nn.functional.fused_conv_bn_relu_supported`) before
    #: routing through the fused path.
    supports_fusion: bool = False

    def conv3d_forward(self, x, w, b, stride, pad):
        raise NotImplementedError

    def conv3d_backward(self, dy, x, w, stride, pad, with_bias):
        raise NotImplementedError

    def conv_transpose3d_forward(self, x, w, b, stride):
        raise NotImplementedError

    def conv_transpose3d_backward(self, dy, x, w, stride, with_bias):
        raise NotImplementedError

    # -- optional fused Conv3D+BatchNorm+ReLU (supports_fusion) -------------
    def conv3d_bn_relu_forward(self, x, w, b, gamma, beta, running_mean,
                               running_var, eps, stride, pad, training,
                               ctx=None):
        """Fused ``relu(batchnorm(conv3d(x)))``.

        Returns ``(y, mean, var)`` -- batch statistics in training mode
        (the layer folds them into its running estimates), the running
        statistics unchanged in eval mode.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support conv/BN/ReLU fusion")

    def conv3d_bn_relu_backward(self, dy, x, w, gamma, stride, pad,
                                with_bias, ctx=None, need_dx=True):
        """Gradients of :meth:`conv3d_bn_relu_forward` (training mode).

        Returns ``(dx, dw, db, dgamma, dbeta)``; requires the ``ctx``
        the forward call populated.  ``need_dx=False`` lets the backend
        skip the input gradient (``dx`` is then ``None``) -- e.g. for a
        network's first layer, whose input carries no gradient.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support conv/BN/ReLU fusion")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"


_BACKENDS: dict[str, KernelBackend] = {}
_active: KernelBackend | None = None
_lock = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (name collisions replace,
    so tests can re-register instrumented doubles)."""
    if not getattr(backend, "name", None) or backend.name == "abstract":
        raise ValueError("backend needs a concrete .name")
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_BACKENDS))


def _resolve(name: str) -> KernelBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def get_backend() -> KernelBackend:
    """The active backend (``DEFAULT_BACKEND`` until one is set)."""
    global _active
    if _active is None:
        with _lock:
            if _active is None:
                _active = _resolve(DEFAULT_BACKEND)
    return _active


def set_backend(backend: str | KernelBackend) -> KernelBackend:
    """Install the active backend; returns the previous one, so
    :func:`use_backend` can restore it."""
    global _active
    new = _resolve(backend) if isinstance(backend, str) else backend
    previous = get_backend()
    with _lock:
        _active = new
    return previous


@contextlib.contextmanager
def use_backend(backend: str | KernelBackend):
    """Context manager: run the enclosed block under another backend."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


# -- kernel-seconds ledger ---------------------------------------------------
_stats_lock = threading.Lock()
_kernel_seconds: dict[tuple[str, str], float] = {}


def record_kernel_seconds(backend: str, op: str, seconds: float) -> None:
    """Accumulate wall-clock for one dispatched kernel call."""
    key = (backend, op)
    with _stats_lock:
        _kernel_seconds[key] = _kernel_seconds.get(key, 0.0) + seconds


def consume_kernel_seconds() -> dict[tuple[str, str], float]:
    """Drain and return the ledger (caller feeds it into telemetry)."""
    with _stats_lock:
        out = dict(_kernel_seconds)
        _kernel_seconds.clear()
    return out


def kernel_seconds_snapshot() -> dict[tuple[str, str], float]:
    """Non-destructive view of the ledger (tests, debugging)."""
    with _stats_lock:
        return dict(_kernel_seconds)
