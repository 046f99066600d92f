"""Documentation guards: the README's code must actually run, the
examples must at least compile, and the experiment index must point at
real files."""

import ast
import py_compile
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


class TestReadmeSnippet:
    def test_python_block_executes(self):
        """Extract the README's Python example and run it (with the
        expensive simulate_comparison narrowed for test speed)."""
        text = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README must contain a python example"
        code = blocks[0]
        # narrow the sweep so the doc test stays fast
        code = code.replace("gpu_counts=(1, 2, 4, 8, 16, 32)",
                            "gpu_counts=(1, 32), num_runs=1")
        ast.parse(code)  # must be valid syntax as printed
        exec(compile(code, "<README>", "exec"), {})  # and actually run


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", sorted((REPO / "examples").glob("*.py")),
        ids=lambda p: p.stem,
    )
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_expected_example_set(self):
        names = {p.stem for p in (REPO / "examples").glob("*.py")}
        assert {
            "quickstart",
            "hyperparameter_search",
            "data_parallel_training",
            "reproduce_table1",
            "pipeline_profiling",
            "full_volume_vs_patches",
            "fault_tolerance",
            "adaptive_search_simulation",
            "generate_all_results",
        } <= names


class TestExperimentIndex:
    def test_design_md_references_exist(self):
        """Every benchmarks/... or examples/... path DESIGN.md's
        experiment index mentions must exist."""
        text = (REPO / "DESIGN.md").read_text()
        refs = set(re.findall(r"`((?:benchmarks|examples)/[\w/]+\.py)`", text))
        assert refs, "experiment index should reference bench files"
        for ref in refs:
            assert (REPO / ref).exists(), f"DESIGN.md references missing {ref}"

    def test_experiments_md_covers_all_ids(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for eid in [f"E{i}" for i in range(1, 16)]:
            assert f"{eid} " in text or f"{eid}/" in text or f"{eid}—" in text \
                or f"{eid} —" in text, f"EXPERIMENTS.md missing {eid}"


#: ``## E<n> — title`` (E2 and E3 share ``## E2/E3 — ...``).
HEADING = re.compile(r"^## (E\d+(?:/E\d+)*) — (.*)$", re.MULTILINE)
#: A benchmark or test file named in a heading or an index cell.
BENCH_FILE = re.compile(r"(?:benchmarks|tests)/[\w/]+\.py")


def _experiment_headings() -> dict[str, str]:
    """EXPERIMENTS.md: experiment ID -> its heading's title."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    return {eid: title for ids, title in HEADING.findall(text)
            for eid in ids.split("/")}


def _table_rows(text: str, section: str) -> list[list[str]]:
    """Cells of every ``| E<n> ...`` table row under the ``## section``
    heading, up to the next ``## `` heading."""
    body = text.partition(f"\n## {section}\n")[2].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in body.splitlines() if re.match(r"\| E\d+\b", line)]


class TestExperimentIds:
    def test_design_index_and_experiments_name_the_same_benchmark(self):
        """An ID means one experiment: where DESIGN.md's index and an
        EXPERIMENTS.md heading share an ID, the heading's benchmark is
        among the files the index row regenerates it with."""
        headings = _experiment_headings()
        rows = _table_rows((REPO / "DESIGN.md").read_text(),
                           "4. Experiment index (every table and figure)")
        assert len(rows) >= 8, "DESIGN.md's experiment index not found"
        mismatched = []
        for cells in rows:
            eid = re.match(r"E\d+", cells[0]).group()
            if eid not in headings:
                continue
            named = set(BENCH_FILE.findall(headings[eid]))
            regenerated_by = set(BENCH_FILE.findall(cells[-1]))
            if not named or not named <= regenerated_by:
                mismatched.append((eid, sorted(named), sorted(regenerated_by)))
        assert mismatched == []

    def test_every_experiment_has_a_ledger_row(self):
        """Ratchet: a new ``## E<n>`` heading needs an extension-ledger
        row, with all four fields filled."""
        rows = _table_rows((REPO / "EXPERIMENTS.md").read_text(),
                           "Extension ledger")
        ledger = {cells[0]: cells for cells in rows}
        for eid in _experiment_headings():
            assert eid in ledger, f"extension ledger has no row for {eid}"
            claim, truth, alive, verdict = ledger[eid][2:]
            assert all((claim, truth, alive, verdict)), ledger[eid]
