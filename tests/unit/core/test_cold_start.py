"""Cold start: shipped paths load neither SciPy nor the simulator.

Execpool trial workers, serve replicas and data-parallel replicas are
forked from the parent process, so every module it imports before
the fork is paid once per process.  Nothing under ``src/`` needs
SciPy: cohort synthesis smooths in NumPy, and the simulator's
straggler quadrature and Table I fit are NumPy too, so neither
``distmis table1`` nor ``distmis calibrate`` loads it.  The paper-scale
simulator (``repro.cluster``, ``repro.perf``, ``repro.core.{simulated,runner,
report,results}``) may import the executed system, never the other
way: importing, training (one or two replicas), a process-pool search,
``distmis search`` and serving load none of it.  Parsing the
run-directory commands (``distmis telemetry|top|trace``) loads neither
NumPy nor ``repro.nn``.  Each snippet runs once in a fresh
interpreter, so what the test run itself has imported cannot mask a
regression.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]

IMPORTS = "import repro.cli, repro.core, repro.nn, repro.serve"

SIMULATOR_PACKAGES = ("repro.cluster", "repro.perf")
SIMULATOR_MODULES = ("repro.core.simulated", "repro.core.runner",
                     "repro.core.report", "repro.core.results")

REPORT = f"""
import json, sys

def loaded(names):
    prefixes = tuple(n + "." for n in names)
    return sorted(m for m in sys.modules
                  if m in names or m.startswith(prefixes))

simulator = {SIMULATOR_PACKAGES + SIMULATOR_MODULES!r}
print(json.dumps({{"scipy": loaded(("scipy",)),
                  "numpy": loaded(("numpy",)),
                  "nn": loaded(("repro.nn",)),
                  "telemetry": loaded(("repro.telemetry",)),
                  "simulator": loaded(simulator)}}))
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


TRAIN_DP2 = """
from repro.core import ExperimentSettings, MISPipeline, train_trial

settings = ExperimentSettings(num_subjects=3, volume_shape=(8, 8, 8),
                              epochs=1, base_filters=2, depth=2)
outcome = train_trial({"learning_rate": 1e-3, "loss": "dice"}, settings,
                      MISPipeline(settings), num_replicas=2)
assert len(outcome.history) == 1, outcome.history
"""

SEARCH_POOL = """
from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.experiment_parallel import run_search_inprocess

settings = ExperimentSettings(num_subjects=3, volume_shape=(8, 8, 8),
                              epochs=1, base_filters=2, depth=2)
space = HyperparameterSpace({"learning_rate": [1e-3, 3e-3],
                             "loss": ["dice"]})
result = run_search_inprocess(space, settings, executor="process",
                              max_workers=2)
assert len(result.outcomes) == 2, result.outcomes
"""

PARSE_INSPECTION = """
from repro.cli import build_parser

build_parser().parse_args({argv!r})
"""

CLI_SEARCH = """
from repro.cli import main

assert main(["search", "--subjects", "3", "--volume", "8", "8", "8",
             "--epochs", "1", "--base-filters", "2", "--depth", "2",
             "--lr", "1e-3", "3e-3"]) == 0
"""

CLI_SIMULATOR = """
from repro.cli import main

assert main({argv!r}) == 0
"""


@functools.lru_cache(maxsize=None)
def modules_after(snippet: str, imports: str = IMPORTS) -> dict[str, list[str]]:
    """SciPy, NumPy, ``repro.nn`` and simulator modules loaded once
    ``imports`` and then ``snippet`` have run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", imports + "\n" + snippet + REPORT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_shipped_packages_loads_no_scipy():
    assert modules_after("")["scipy"] == []


def test_serving_a_request_loads_no_scipy():
    assert modules_after(SERVE_ONE)["scipy"] == []


TRAINING_AND_SEARCH = [
    pytest.param(TRAIN_ONE, id="train"),
    pytest.param(TRAIN_DP2, id="train_dp2"),
    pytest.param(SEARCH_POOL, id="search_pool"),
    pytest.param(CLI_SEARCH, id="cli_search"),
]


@pytest.mark.parametrize("snippet", TRAINING_AND_SEARCH)
def test_training_and_search_load_no_scipy(snippet):
    assert modules_after(snippet)["scipy"] == []


@pytest.mark.parametrize("argv", [
    pytest.param(["table1"], id="table1"),
    pytest.param(["calibrate"], id="calibrate"),
])
def test_simulator_commands_load_no_scipy(argv):
    """``distmis table1|calibrate`` price and fit Table I in NumPy."""
    loaded = modules_after(CLI_SIMULATOR.format(argv=argv), imports="")
    assert loaded["scipy"] == [], loaded


@pytest.mark.parametrize("snippet", [
    pytest.param("", id="import"),
    pytest.param(SERVE_ONE, id="serve"),
    *TRAINING_AND_SEARCH,
])
def test_executed_side_loads_no_simulator_module(snippet):
    assert modules_after(snippet)["simulator"] == []


def test_importing_core_loads_no_telemetry():
    """``repro.core`` reaches the telemetry hub lazily (the pipeline's
    default hub, the E5 profiler's private one), so importing it pays
    for none of ``repro.telemetry``."""
    assert modules_after("", imports="import repro.core")["telemetry"] == []


@pytest.mark.parametrize("name", SIMULATOR_PACKAGES + SIMULATOR_MODULES)
def test_every_guarded_simulator_module_exists(name):
    """An entry naming a module that no longer exists could never be
    reported as loaded, so the guard above would silently shrink."""
    assert importlib.util.find_spec(name) is not None, name


@pytest.mark.parametrize("argv", [
    pytest.param(["telemetry", "summary", "run"], id="telemetry"),
    pytest.param(["top", "run"], id="top"),
    pytest.param(["trace", "run"], id="trace"),
])
def test_parsing_an_inspection_command_loads_no_numpy(argv):
    """``distmis telemetry|top|trace`` read run directories; building
    the parser must not import the loss registry to list its names."""
    loaded = modules_after(PARSE_INSPECTION.format(argv=argv), imports="")
    assert loaded["numpy"] == [] and loaded["nn"] == [], loaded
