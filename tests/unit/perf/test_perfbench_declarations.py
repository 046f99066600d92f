"""``BENCHMARK.json`` must declare exactly what ``perfbench/spec.py``
measures, so a renamed workload or metric fails the unit suite rather
than the first benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]


def test_benchmark_json_matches_perfbench_spec():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
