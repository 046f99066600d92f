#!/usr/bin/env python3
"""Generate docs/api.md from the package's public API.

Walks every ``repro`` subpackage (plus ``repro.core.search`` and the
simulator modules of ``repro.core``, which its ``__init__`` does not
re-export), collects the
names each exports and their first docstring line, and writes a browsable API
index.  Run after adding public symbols:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro.fault_tolerance",
    "repro.nn",
    "repro.data",
    "repro.cluster",
    "repro.raysim",
    "repro.perf",
    "repro.telemetry",
    "repro.execpool",
    "repro.serve",
    "repro.core",
    "repro.core.search",
    # core's simulator modules: imported by name, not re-exported
    "repro.core.simulated",
    "repro.core.results",
    "repro.core.report",
    "repro.core.runner",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if inspect.ismodule(obj):
        return "module"
    return type(obj).__name__


def document_package(name: str) -> list[str]:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    head = first_line(mod)
    if head:
        lines += [head, ""]
    exported = getattr(mod, "__all__", None)
    if exported is None:
        exported = [n for n in dir(mod) if not n.startswith("_")]
    rows = []
    for sym in exported:
        obj = getattr(mod, sym, None)
        if obj is None or inspect.ismodule(obj):
            continue
        rows.append((sym, kind_of(obj), first_line(obj)))
    if rows:
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for sym, kind, summary in sorted(rows):
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{sym}` | {kind} | {summary} |")
        lines.append("")
    return lines


def main() -> None:
    out = [
        "# API index",
        "",
        "_Generated by `python tools/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    for pkg in PACKAGES:
        out += document_package(pkg)
    target = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} lines)")


if __name__ == "__main__":
    main()
