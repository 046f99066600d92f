"""Which OpenBLAS core family the running NumPy's GEMMs dispatch to.

NumPy's wheel links a ``DYNAMIC_ARCH`` OpenBLAS: it picks its GEMM
kernels by CPU, or by the per-process ``OPENBLAS_CORETYPE`` variable.
Each kernel family rounds a GEMM's sums in its own order, so an
absolute sha256 pin of a trained result records the core family as
well as the code.  The pinned tests assert through :func:`pin_message`,
so a mismatch says which family the pin was recorded on and which one
ran.  ``make verify-cores`` runs them once per family.
"""

import ctypes
import functools

#: The core family every absolute bit pin in the suite was recorded on
#: (an AVX-512 host's default).
RECORDED_CORE = "SkylakeX"

# NumPy's wheels link scipy-openblas (64-bit ints); a NumPy built
# against a system OpenBLAS exports the upstream name
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_",
                     "openblas_get_corename")


@functools.cache
def blas_core() -> str:
    """The active core family (``SkylakeX``, ``Haswell``, ...), read
    from the OpenBLAS library NumPy mapped into this process; "unknown"
    when no mapped library exports a core name."""
    import numpy  # noqa: F401 -- maps NumPy's BLAS library

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def pin_message(label: str) -> str:
    """Assertion message of an absolute bit pin."""
    return (f"{label}: pinned bytes recorded on {RECORDED_CORE}, "
            f"running on {blas_core()}")
