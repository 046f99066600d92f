"""Every ``repro`` name the benchmark harness imports must exist.

``perfbench/`` imports ``repro`` inside functions, so a renamed or
deleted symbol would only surface when the benchmark runs.  This test
parses every ``perfbench/*.py`` with :mod:`ast` and resolves each
``import repro...`` / ``from repro... import name`` -- module level or
nested in a function -- so such a refactor fails the unit suite
instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]


def repro_imports():
    """Sorted distinct ``(file, module, name)`` for every ``repro``
    import in ``perfbench/`` (``name`` is "" for a plain ``import``)."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name, "") for alias in node.names
                          if alias.name.split(".")[0] == "repro"}
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "repro"):
                found |= {(path.name, node.module, alias.name)
                          for alias in node.names}
    return sorted(found)


IMPORTS = repro_imports()


def test_harness_imports_repro_at_all():
    # guards the parser itself: an empty list would pass vacuously
    assert ("workloads.py", "repro.serve", "ModelServer") in IMPORTS


@pytest.mark.parametrize("file,module,name", IMPORTS,
                         ids=[f"{f}:{m}:{n}" for f, m, n in IMPORTS])
def test_imported_name_exists(file, module, name):
    mod = importlib.import_module(module)
    if not name or hasattr(mod, name):
        return
    # ``from package import submodule`` binds a module, not an attribute
    importlib.import_module(f"{module}.{name}")
