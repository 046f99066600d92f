"""Reproduction-report builder tests."""

import pytest

from repro.core.report import build_report


@pytest.fixture(scope="module")
def report_text():
    return build_report(num_runs=1, base_seed=0)


class TestBuildReport:
    def test_has_all_sections(self, report_text):
        assert "# DistMIS reproduction report" in report_text
        assert "## Table I (ours vs paper)" in report_text
        assert "## Figure 4 series" in report_text
        assert "## Data-parallel cost decomposition" in report_text

    def test_table_has_all_gpu_rows(self, report_text):
        for n in (1, 2, 4, 8, 12, 16, 32):
            assert f"\n| {n} | " in report_text

    def test_paper_values_quoted(self, report_text):
        assert "44:18:02" in report_text   # paper dp @ 1 GPU
        assert "2:55:06" in report_text    # paper ep @ 32 GPUs
        assert "13.18" in report_text
        assert "15.19" in report_text

    def test_calibration_disclosure_present(self, report_text):
        assert "Calibration fit vs Table I" in report_text
        assert "%" in report_text

    def test_gap_statement(self, report_text):
        assert "Speed-up gap" in report_text

    def test_valid_markdown_tables(self, report_text):
        """Every table row has the same column count as its header."""
        lines = report_text.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("|") and i + 1 < len(lines) and \
                    set(lines[i + 1].replace("|", "").strip()) <= {"-", ":", " "}:
                ncols = lines[i].count("|")
                j = i + 2
                while j < len(lines) and lines[j].startswith("|"):
                    assert lines[j].count("|") == ncols, lines[j]
                    j += 1
                i = j
            else:
                i += 1
