"""Benchmark records: schema, required metrics, smoke naming, host metadata."""

import json
import tempfile
from pathlib import Path

import pytest

from repro.perf.regression import (
    UNTRACKED_RECORDS,
    bench_output_path,
    committed_records,
    host_metadata,
    is_smoke_env,
    validate_record,
)

HOST_A = {"cpu_count": 8, "machine": "x86_64", "processor": "x86_64",
          "blas": {"name": "openblas", "version": "0.3"}}

BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"


class TestSmokeEnvAndPaths:
    def test_is_smoke_env_reads_flag(self):
        assert not is_smoke_env({})
        assert not is_smoke_env({"DISTMIS_BENCH_SMOKE": "0"})
        assert not is_smoke_env({"DISTMIS_BENCH_SMOKE": ""})
        assert is_smoke_env({"DISTMIS_BENCH_SMOKE": "1"})

    def test_smoke_runs_are_quarantined_to_their_own_file(self, tmp_path):
        anchor = tmp_path / "test_kernels.py"
        full = bench_output_path(anchor, "kernels", smoke=False)
        smoke = bench_output_path(anchor, "kernels", smoke=True)
        assert full == tmp_path / "BENCH_kernels.json"
        assert smoke == (Path(tempfile.gettempdir()) / "distmis_bench"
                         / "BENCH_kernels_smoke.json")
        assert smoke.parent.is_dir()

    def test_host_metadata_carries_comparability_keys(self):
        meta = host_metadata()
        assert {"cpu_count", "machine", "blas_threads", "blas"} <= set(meta)


class TestSchema:
    def good(self):
        return {"benchmark": "kernels", "smoke": False, "host": dict(HOST_A),
                "step_seconds": 1.25}

    def test_valid_record_passes(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        assert validate_record(self.good(), path=path) == []

    def test_missing_keys_and_bad_types_reported(self):
        problems = validate_record({"smoke": "yes", "host": []})
        text = "\n".join(problems)
        assert "benchmark" in text
        assert "'smoke' must be a boolean" in text
        assert "'host' must be an object" in text

    def test_no_numeric_metrics_is_a_problem(self):
        obj = {"benchmark": "k", "smoke": False, "host": {},
               "note": "text only", "flag": True}
        assert any("no numeric metrics" in p for p in validate_record(obj))
        # host metadata says where a record was measured; it is no metric
        obj = {"benchmark": "k", "smoke": False, "host": {"cpu_count": 8}}
        assert any("no numeric metrics" in p for p in validate_record(obj))

    def test_smoke_filename_consistency_enforced(self, tmp_path):
        smoke_obj = dict(self.good(), smoke=True)
        bad = validate_record(smoke_obj, path=tmp_path / "BENCH_k.json")
        assert any("smoke record on a trajectory filename" in p for p in bad)
        bad = validate_record(self.good(),
                              path=tmp_path / "BENCH_k_smoke.json")
        assert any("*_smoke.json" in p for p in bad)

    @pytest.mark.parametrize("kind,filename,dotted", [
        ("serving", "BENCH_serving.json",
         "priorities.low.latency_seconds.p99"),
        ("kernel_backends", "BENCH_kernels.json",
         "backends.fused.float32.step_seconds"),
    ])
    def test_missing_required_nested_metric_is_reported(
            self, kind, filename, dotted):
        path = BENCH_DIR / filename
        obj = json.loads(path.read_text())
        assert obj["benchmark"] == kind
        *parents, leaf = dotted.split(".")
        block = obj
        for key in parents:
            block = block[key]
        del block[leaf]
        assert validate_record(obj, path=path) == [
            f"{path}: benchmark {kind!r} requires metric {dotted!r}"]


    def test_kernel_rows_follow_the_backend_registry(self, monkeypatch):
        """Every registered backend needs its rows, read from the registry
        when the record is validated, not from a hand-kept list."""
        from repro.nn.kernels import KernelBackend, registry

        class Extra(KernelBackend):
            name = "extra"

        path = BENCH_DIR / "BENCH_kernels.json"
        obj = json.loads(path.read_text())
        assert validate_record(obj, path=path) == []
        monkeypatch.setitem(registry._BACKENDS, "extra", Extra())
        assert validate_record(obj, path=path) == [
            f"{path}: benchmark 'kernel_backends' requires metric "
            f"'backends.extra.{dtype}.step_seconds'"
            for dtype in ("float64", "float32")]
        obj["backends"]["extra"] = {
            dtype: {"step_seconds": 0.5} for dtype in ("float64", "float32")}
        assert validate_record(obj, path=path) == []


class TestCommittedBaselines:
    def test_committed_bench_files_satisfy_the_schema(self):
        files = committed_records(BENCH_DIR)
        assert files, "no committed benchmark records found"
        for path in files:
            # includes "at least one numeric metric outside host"
            assert validate_record(json.loads(path.read_text()),
                                   path=path) == []

    def test_schema_gate_skips_ignored_smoke_files(self, tmp_path):
        """Stale ignored records next to the baselines (``make smoke``
        output, a local full-size ``BENCH_parallel.json``) must not fail
        the lint gate: only committed records are checked."""
        import importlib.util
        import shutil

        root = Path(__file__).resolve().parents[3]
        spec = importlib.util.spec_from_file_location(
            "check_bench_schema", root / "tools" / "check_bench_schema.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        shutil.copy(root / "benchmarks" / "BENCH_kernels.json", tmp_path)
        (tmp_path / "BENCH_x_smoke.json").write_text('{"smoke": false}')
        (tmp_path / "BENCH_parallel.json").write_text('{"stale": ')
        assert tool.main(["check_bench_schema", str(tmp_path)]) == 0
        assert [p.name for p in committed_records(tmp_path)] == [
            "BENCH_kernels.json"]

    def test_untracked_records_match_gitignore(self):
        """The local full-run records the gates skip by name are the
        ones ``.gitignore`` keeps out of ``benchmarks/`` (smoke records
        never land there)."""
        root = Path(__file__).resolve().parents[3]
        ignored = {line.removeprefix("benchmarks/")
                   for line in (root / ".gitignore").read_text().splitlines()
                   if line.startswith("benchmarks/BENCH_")}
        assert ignored == set(UNTRACKED_RECORDS)
