"""Cold start: shipped paths load neither SciPy nor the simulator.

Execpool trial workers, serve replicas and data-parallel replicas are
forked from the driver image, so every module it imports at start-up
is paid once per process.  SciPy is needed only by the simulator's
data-parallel pricing (``perf.straggler``), the Table I fit
(``perf.calibration``) and cohort synthesis (``data.synthetic_brats``),
which import it at the call.  The paper-scale simulator
(``repro.cluster``, ``repro.perf``, ``repro.core.{simulated,runner,
report,results}``) may import the executed system, never the other
way: importing, training and serving load none of it.  Each check runs
a fresh interpreter, so what the test session itself has imported
cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]

IMPORTS = "import repro.cli, repro.core, repro.nn, repro.serve"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

SIMULATOR_PACKAGES = ("repro.cluster", "repro.perf")
SIMULATOR_MODULES = ("repro.core.simulated", "repro.core.runner",
                     "repro.core.report", "repro.core.results",
                     "repro.raysim.scheduler")

REPORT_SIMULATOR = f"""
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules
    if m in {SIMULATOR_PACKAGES + SIMULATOR_MODULES!r}
    or m.startswith({tuple(p + "." for p in SIMULATOR_PACKAGES)!r}))))
"""

SERVE_ONE = """
import tempfile
import numpy as np
from repro.core.checkpoint import CheckpointManager
from repro.nn import UNet3D
from repro.serve import ModelServer, ServeConfig

kw = dict(in_channels=1, out_channels=1, base_filters=2, depth=2,
          use_batchnorm=False)
with tempfile.TemporaryDirectory() as tmp:
    mgr = CheckpointManager(tmp)
    mgr.save(UNet3D(rng=np.random.default_rng(0), **kw), epoch=1,
             val_dice=0.5)
    cfg = ServeConfig(checkpoint=str(mgr.best_path), model_builder=UNet3D,
                      model_kwargs=kw, replicas=1, max_batch=1,
                      max_delay_ms=0.0, heartbeat_s=0.2)
    with ModelServer(cfg) as server:
        fut = server.submit(np.random.default_rng(1).normal(size=(1, 8, 8, 8)))
        server.drain(timeout_s=60)
        response = fut.result()
    assert response.strategy == "full_volume", response.strategy
    assert response.prediction.shape == (1, 8, 8, 8)
"""

TRAIN_ONE = """
from repro.core import ExperimentSettings, MISPipeline, train_trial

settings = ExperimentSettings(num_subjects=3, volume_shape=(8, 8, 8),
                              epochs=1, base_filters=2, depth=2)
outcome = train_trial({"learning_rate": 1e-3, "loss": "dice"}, settings,
                      MISPipeline(settings))
assert len(outcome.history) == 1, outcome.history
"""


def modules_after(code: str, report: str = REPORT) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + report], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_shipped_packages_loads_no_scipy():
    assert modules_after(IMPORTS) == []


def test_serving_a_request_loads_no_scipy():
    assert modules_after(IMPORTS + "\n" + SERVE_ONE) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("", id="import"),
    pytest.param(SERVE_ONE, id="serve"),
    pytest.param(TRAIN_ONE, id="train"),
])
def test_executed_side_loads_no_simulator_module(snippet):
    assert modules_after(IMPORTS + "\n" + snippet, REPORT_SIMULATOR) == []
