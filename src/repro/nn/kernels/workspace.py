"""Workspace arena: bounded, shape-keyed reuse of large scratch buffers.

The ``fused`` backend lowers every convolution to ``patches x weights``
GEMMs, and the patches (slice) buffers are *large* -- ``kh*kw`` times the
activation they were gathered from.  Allocating (and faulting in) such a
temporary per convolution per step would hand a large share of the step
time to the allocator, so scratch buffers are checked out of a
process-wide arena instead and recycled across steps.

Semantics:

* :meth:`WorkspaceArena.acquire` returns an **uninitialised** buffer of
  the requested shape/dtype -- a recycled one when the free pool holds a
  match, a fresh allocation otherwise.  Callers must fully overwrite it.
* :meth:`WorkspaceArena.release` checks a buffer back in.  Released bytes
  are retained up to ``max_bytes`` (512 MiB for the process-wide arena,
  rebound with :func:`set_workspace_limit`; oldest-first eviction beyond
  that);
  checked-out buffers are never counted against the budget because they
  cannot be evicted.
* Buffers are handed to exactly one caller at a time, so workspace reuse
  can never alias a *live* tensor: two overlapping checkouts of the same
  key get two distinct buffers, and kernel outputs are always freshly
  allocated arrays, never views into the arena (property-tested in
  ``tests/unit/nn/test_workspace.py``).

The arena is thread-safe and its footprint is exported as the
``kernel_workspace_bytes`` telemetry gauge by
:class:`~repro.raysim.sgd.DataParallelTrainer`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "WorkspaceArena",
    "workspace",
    "set_workspace_limit",
    "workspace_bytes",
]

# Retained (free-pool) budget of the process-wide arena.
DEFAULT_LIMIT_BYTES = 512 * 1024 * 1024


class WorkspaceArena:
    """Pool of reusable scratch ndarrays keyed by ``(shape, dtype)``."""

    def __init__(self, max_bytes: int = DEFAULT_LIMIT_BYTES):
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._order: list[tuple] = []  # FIFO of (key, nbytes) for eviction
        self._out: dict[int, tuple] = {}  # id(buffer) -> key while checked out
        self.free_bytes = 0
        self.in_use_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(d) for d in shape), np.dtype(dtype).str)

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """Check out an uninitialised ``(shape, dtype)`` scratch buffer."""
        key = self._key(shape, dtype)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self.free_bytes -= buf.nbytes
                self._order.remove((key, buf.nbytes))
                self.hits += 1
            else:
                buf = None
                self.misses += 1
        if buf is None:
            buf = np.empty(key[0], dtype=np.dtype(dtype))
        with self._lock:
            self._out[id(buf)] = key
            self.in_use_bytes += buf.nbytes
        return buf

    def release(self, buf: np.ndarray | None) -> None:
        """Return a buffer to the pool.  Foreign arrays (not handed out by
        :meth:`acquire`) and ``None`` are ignored, so callers can release
        unconditionally."""
        if buf is None:
            return
        with self._lock:
            key = self._out.get(id(buf))
            if key is None:
                return
            if buf.shape != key[0] or buf.dtype.str != key[1]:
                # ``id`` reuse: a checkout leaked (its ctx was dropped
                # without release), the buffer was collected, and this
                # *foreign* array landed on the same address.  Filing it
                # under the stale key would hand a wrong-shaped buffer
                # to a later acquire -- drop the entry, ignore the array.
                del self._out[id(buf)]
                return
            del self._out[id(buf)]
            self.in_use_bytes -= buf.nbytes
            if buf.nbytes > self.max_bytes:
                self.evictions += 1  # too big to ever retain
                return
            self._free.setdefault(key, []).append(buf)
            self._order.append((key, buf.nbytes))
            self.free_bytes += buf.nbytes
            while self.free_bytes > self.max_bytes and self._order:
                old_key, nbytes = self._order.pop(0)
                self._free[old_key].pop(0)
                self.free_bytes -= nbytes
                self.evictions += 1

    def clear(self) -> None:
        """Drop every retained buffer (checked-out ones stay live)."""
        with self._lock:
            self._free.clear()
            self._order.clear()
            self.free_bytes = 0

    @property
    def total_bytes(self) -> int:
        return self.free_bytes + self.in_use_bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "free_bytes": self.free_bytes,
                "in_use_bytes": self.in_use_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_WORKSPACE = WorkspaceArena()


def workspace() -> WorkspaceArena:
    """The process-wide arena shared by every kernel invocation."""
    return _WORKSPACE


def set_workspace_limit(max_bytes: int) -> int:
    """Rebound the retained-bytes budget; returns the previous limit."""
    ws = workspace()
    previous, ws.max_bytes = ws.max_bytes, int(max_bytes)
    with ws._lock:
        while ws.free_bytes > ws.max_bytes and ws._order:
            key, nbytes = ws._order.pop(0)
            ws._free[key].pop(0)
            ws.free_bytes -= nbytes
            ws.evictions += 1
    return previous


def workspace_bytes() -> int:
    """Current arena footprint (retained + checked out), for the
    ``kernel_workspace_bytes`` gauge."""
    return workspace().total_bytes
