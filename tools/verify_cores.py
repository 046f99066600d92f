"""Run the absolute bit pins once per OpenBLAS core family.

NumPy's OpenBLAS picks its GEMM kernels by CPU; ``OPENBLAS_CORETYPE``
forces a family for one process.  The pinned tests (the shipped
model's trained bytes, the fused kernel's 13 outputs and the search
driver's outcomes) were recorded on ``tests.blas_core.RECORDED_CORE``;
this runs them under the host default and under three forced families
and prints one pass/fail row per family.  Each run is a child
process whose environment differs only in that variable (and
``PYTHONPATH``, to find ``src``).  Exits 1 when the pins fail on the
family they were recorded on.

    python tools/verify_cores.py      # or: make verify-cores
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = (
    "tests/unit/nn/test_unet3d.py::TestShippedModelBytes",
    "tests/unit/nn/test_kernel_backends.py::TestFusedChunking"
    "::test_outputs_pinned",
    "tests/integration/test_search_driver.py",
)
CORES = (None, "Haswell", "SandyBridge", "Prescott")  # None: host default


def _env(core):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return env


def active_core(core) -> str:
    """The family OpenBLAS runs under ``core`` (as the tests read it)."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from tests.blas_core import blas_core; print(blas_core())"],
        cwd=ROOT, env=_env(core), capture_output=True, text=True,
        check=True)
    return out.stdout.strip()


def run_pins(core) -> tuple[int, int]:
    """``(passed, failed)`` of the pinned tests under ``core``."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *PINNED],
        cwd=ROOT, env=_env(core), capture_output=True, text=True)
    tail = out.stdout.strip().splitlines()[-1] if out.stdout else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed)",
                                               tail)}
    if out.returncode not in (0, 1) or not counts:
        raise RuntimeError(f"pytest exited {out.returncode}: "
                           f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return counts.get("passed", 0), counts.get("failed", 0)


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from tests.blas_core import RECORDED_CORE

    print(f"pins recorded on {RECORDED_CORE}")
    print(f"{'OPENBLAS_CORETYPE':<18} {'active core':<12} "
          f"{'passed':>6} {'failed':>6}")
    recorded_ok = None
    for core in CORES:
        active = active_core(core)
        passed, failed = run_pins(core)
        print(f"{core or '(host default)':<18} {active:<12} "
              f"{passed:>6} {failed:>6}", flush=True)
        if active == RECORDED_CORE:
            recorded_ok = (recorded_ok is not False) and failed == 0
    if recorded_ok is None:
        print(f"no run was on {RECORDED_CORE}: the pins are unchecked here")
        return 0
    return 0 if recorded_ok else 1


if __name__ == "__main__":
    sys.exit(main())
