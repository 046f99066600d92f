"""Workspace arena: size-keyed reuse of large scratch buffers.

The ``fused`` backend lowers every convolution to ``patches x weights``
GEMMs, and the patches (slice) buffers are *large* -- ``kh*kw`` times the
activation they were gathered from.  Allocating (and faulting in) such a
temporary per convolution per step would hand a large share of the step
time to the allocator, so scratch buffers are checked out of a
process-wide arena instead and recycled across steps.  Every checkout
is released before the kernel call that made it returns: nothing a
layer keeps between its forward and backward lives in the arena.

The arena retains scratch as raw byte *blocks*, not as typed arrays:
one retained block serves every request that fits in it, whatever its
shape or dtype.  A layer's released 4 MB slice buffer therefore serves
the next layer's 3 MB padded input, and the arena holds about the
largest set of buffers ever checked out at once rather than one buffer
per distinct ``(shape, dtype)`` it has seen.

Semantics:

* :meth:`WorkspaceArena.acquire` returns an **uninitialised**,
  C-contiguous array of the requested shape/dtype: a view of the
  *smallest* retained block that fits (best fit by bytes), or of a
  fresh block when none fits -- which then replaces the largest
  retained block, too small to serve this request, rather than
  leaving it idle.  Callers must fully overwrite it.  An exact repeat
  of the last ``(shape, dtype)`` a block served returns the same view
  object.  A miss thus either replaces a retained block with a larger
  one or adds a block while every block is checked out, so a step
  that repeats stops missing once its blocks have grown to fit (after
  one pass for the U-Net steps measured in the tests).
* :meth:`WorkspaceArena.release` checks a view back in; its block is
  found through the view's ``.base`` (NumPy points every view at the
  array that owns the memory) and retained.  There is no byte budget:
  replace-largest-on-miss already bounds what the arena retains to
  about the largest set of blocks ever checked out at once, and
  :meth:`WorkspaceArena.clear` drops them all.
* A block is handed to exactly one caller at a time, so workspace reuse
  can never alias a *live* tensor: two overlapping checkouts get two
  distinct blocks, and kernel outputs are always freshly allocated
  arrays, never views into the arena (property-tested in
  ``tests/unit/nn/test_workspace.py``).  The arena keeps only a weak
  reference to a checked-out view, so a checkout that leaks (a kernel
  raised before its release) is collected, not pinned; the next miss,
  :meth:`WorkspaceArena.stats` or :attr:`WorkspaceArena.total_bytes`
  stops counting it as checked out.

The arena is thread-safe and its footprint is exported as the
``kernel_workspace_bytes`` telemetry gauge by
:class:`~repro.raysim.sgd.DataParallelTrainer`.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left

import numpy as np

__all__ = [
    "WorkspaceArena",
    "workspace",
    "workspace_bytes",
]


class WorkspaceArena:
    """Pool of reusable scratch byte blocks, handed out as typed views."""

    def __init__(self):
        self._lock = threading.Lock()
        # Retained blocks, each held through the last view it served,
        # sorted by block size so best fit is one bisect.
        self._sizes: list[int] = []
        self._views: list[np.ndarray] = []
        # id(block) -> (weakref to the handed-out view, nbytes)
        self._out: dict[int, tuple] = {}
        self.free_bytes = 0
        self.in_use_bytes = 0
        self.peak_in_use_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """Check out an uninitialised ``(shape, dtype)`` scratch array."""
        shape = tuple(map(int, shape))
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        with self._lock:
            i = bisect_left(self._sizes, nbytes)
            if i < len(self._sizes):
                view = self._take(i)
                block = view.base
                self.hits += 1
            else:
                view = None
                self.misses += 1
                self._sweep_leaks()
                if self._sizes:
                    # every retained block is too small: the largest is
                    # replaced by the fresh one rather than kept idle
                    self._take(len(self._sizes) - 1)
                    self.evictions += 1
        if view is None:
            block = np.empty(nbytes, dtype=np.uint8)
        if view is None or view.shape != shape or view.dtype != dtype:
            view = np.ndarray(shape, dtype=dtype, buffer=block)
        with self._lock:
            self._out[id(block)] = (weakref.ref(view), block.nbytes)
            self.in_use_bytes += block.nbytes
            self.peak_in_use_bytes = max(self.peak_in_use_bytes,
                                         self.in_use_bytes)
        return view

    def release(self, buf: np.ndarray | None) -> None:
        """Return a checked-out view to the pool.  Foreign arrays (not
        handed out by :meth:`acquire`) and ``None`` are ignored, so
        callers can release unconditionally."""
        block = getattr(buf, "base", None)
        if block is None:
            return
        with self._lock:
            entry = self._out.get(id(block))
            if entry is None:
                return
            ref, nbytes = entry
            view = ref()
            if view is None:
                # The checkout leaked (dropped without a release):
                # this array is foreign -- it landed on the
                # collected block's address (``id`` reuse) -- or another
                # view of the abandoned block.  Retaining it would hand
                # memory the arena does not own to a later acquire --
                # drop the stale entry, ignore the array.
                self._sweep_leaks()
                return
            if view is not buf:
                return  # another view of a live checkout: not ours to free
            del self._out[id(block)]
            self.in_use_bytes -= nbytes
            i = bisect_left(self._sizes, nbytes)
            self._sizes.insert(i, nbytes)
            self._views.insert(i, view)
            self.free_bytes += nbytes

    def _sweep_leaks(self) -> None:
        """Forget checkouts whose view was collected without a release
        (caller holds the lock): their memory is freed, so it no longer
        counts as checked out."""
        dead = [k for k, (ref, _) in self._out.items() if ref() is None]
        for k in dead:
            self.in_use_bytes -= self._out.pop(k)[1]

    def _take(self, i: int) -> np.ndarray:
        """Remove the ``i``-th retained block from the pool and return
        its view (caller holds the lock)."""
        self.free_bytes -= self._sizes.pop(i)
        return self._views.pop(i)

    def clear(self) -> None:
        """Drop every retained block (checked-out ones stay live)."""
        with self._lock:
            self._sizes.clear()
            self._views.clear()
            self.free_bytes = 0

    def retained(self) -> tuple[np.ndarray, ...]:
        """Read-only views of the retained blocks, smallest first -- for
        checks that pooled memory never aliases a live result."""
        with self._lock:
            blocks = [view.base for view in self._views]
        views = []
        for block in blocks:
            view = block.view()
            view.flags.writeable = False
            views.append(view)
        return tuple(views)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            self._sweep_leaks()
            return self.free_bytes + self.in_use_bytes

    def stats(self) -> dict:
        with self._lock:
            self._sweep_leaks()
            return {
                "free_bytes": self.free_bytes,
                "in_use_bytes": self.in_use_bytes,
                "peak_in_use_bytes": self.peak_in_use_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_WORKSPACE = WorkspaceArena()


def workspace() -> WorkspaceArena:
    """The process-wide arena shared by every kernel invocation."""
    return _WORKSPACE


def workspace_bytes() -> int:
    """Current arena footprint (retained + checked out), for the
    ``kernel_workspace_bytes`` gauge."""
    return workspace().total_bytes
