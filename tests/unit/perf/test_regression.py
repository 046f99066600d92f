"""Benchmark-regression tracker: schema, directions, bands, quarantine."""

import json

import pytest

from repro.perf.regression import (
    UNTRACKED_RECORDS,
    BenchRecord,
    append_trajectory,
    bench_output_path,
    committed_records,
    compare_records,
    host_metadata,
    hosts_comparable,
    is_smoke_env,
    load_bench_record,
    load_trajectory,
    metric_directions,
    validate_record,
)

HOST_A = {"cpu_count": 8, "machine": "x86_64", "processor": "x86_64",
          "blas": {"name": "openblas", "version": "0.3"}}
HOST_B = {"cpu_count": 96, "machine": "ppc64le", "processor": "POWER9",
          "blas": {"name": "essl", "version": "6.2"}}


def record(metrics, host=HOST_A, smoke=False, benchmark="kernels"):
    return BenchRecord(benchmark=benchmark, smoke=smoke, host=dict(host),
                       metrics=dict(metrics))


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
        assert full.name == "BENCH_kernels.json"
        assert smoke.name == "BENCH_kernels_smoke.json"
        assert full != smoke and full.parent == smoke.parent == tmp_path

    def test_host_metadata_carries_comparability_keys(self):
        meta = host_metadata()
        assert {"cpu_count", "machine", "blas_threads", "blas"} <= set(meta)


class TestSchema:
    def good(self):
        return {"benchmark": "kernels", "smoke": False, "host": dict(HOST_A),
                "gemm_seconds": 1.25}

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

    def test_smoke_filename_consistency_enforced(self, tmp_path):
        smoke_obj = dict(self.good(), smoke=True)
        bad = validate_record(smoke_obj, path=tmp_path / "BENCH_k.json")
        assert any("smoke record on a trajectory filename" in p for p in bad)
        bad = validate_record(self.good(),
                              path=tmp_path / "BENCH_k_smoke.json")
        assert any("*_smoke.json" in p for p in bad)

    def test_load_bench_record_flattens_and_excludes_host(self, tmp_path):
        obj = dict(self.good(), nested={"conv_seconds": 2.0, "deep": {
            "speedup": 3.0}})
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps(obj))
        rec = load_bench_record(path)
        assert rec.metrics["gemm_seconds"] == 1.25
        assert rec.metrics["nested.conv_seconds"] == 2.0
        assert rec.metrics["nested.deep.speedup"] == 3.0
        assert not any(k.startswith("host.") for k in rec.metrics)
        assert rec.host_key == ("x86_64", 8, "openblas")

    def test_load_bench_record_raises_on_schema_violation(self, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        path.write_text(json.dumps({"benchmark": "k"}))
        with pytest.raises(ValueError):
            load_bench_record(path)


class TestDirections:
    def test_suffix_token_and_ancestor_inference(self):
        dirs = metric_directions({
            "serial_seconds": 0, "startup_s": 0, "overhead_pct": 0,
            "worker_max_rss_kb.0": 0, "p99_latency_ms": 0,
            "speedup": 0, "throughput_vols": 0, "scaling_efficiency": 0,
            "kernel_seconds.gemm.conv3d_forward": 0,  # via ancestor
            "num_trials": 0, "usable_cores": 0,       # informational
        })
        lower = {k for k, d in dirs.items() if d == "lower"}
        higher = {k for k, d in dirs.items() if d == "higher"}
        assert {"serial_seconds", "startup_s", "overhead_pct",
                "worker_max_rss_kb.0", "p99_latency_ms",
                "kernel_seconds.gemm.conv3d_forward"} == lower
        assert {"speedup", "throughput_vols", "scaling_efficiency"} == higher
        assert "num_trials" not in dirs and "usable_cores" not in dirs

    def test_leaf_wins_over_ancestor(self):
        dirs = metric_directions({"kernel_seconds.gemm.speedup": 0})
        assert dirs == {"kernel_seconds.gemm.speedup": "higher"}


class TestCompare:
    def test_within_band_is_ok(self):
        base = record({"gemm_seconds": 1.0, "speedup": 3.0})
        cand = record({"gemm_seconds": 1.1, "speedup": 2.9})
        report = compare_records(base, cand)
        assert report.ok and report.regressions == []

    def test_slowdown_past_band_regresses(self):
        base = record({"gemm_seconds": 1.0})
        cand = record({"gemm_seconds": 1.3})
        report = compare_records(base, cand)
        (delta,) = report.regressions
        assert delta.rel_change == pytest.approx(0.3)
        assert not report.ok
        assert "REGRESSION" in report.describe()

    def test_higher_is_better_metric_regresses_downward(self):
        base = record({"speedup": 3.0})
        report = compare_records(base, record({"speedup": 2.0}))
        assert not report.ok            # -33% on a higher-is-better metric
        report = compare_records(base, record({"speedup": 4.0}))
        assert report.ok                # improvement never regresses

    def test_informational_metrics_never_gate(self):
        base = record({"num_trials": 4.0})
        report = compare_records(base, record({"num_trials": 400.0}))
        assert report.ok and report.deltas == []

    def test_smoke_candidate_is_quarantined(self):
        base = record({"gemm_seconds": 1.0})
        report = compare_records(base, record({"gemm_seconds": 9.0},
                                              smoke=True))
        assert report.quarantined and not report.ok
        assert report.deltas == []
        assert "QUARANTINED" in report.describe()

    def test_smoke_baseline_is_quarantined(self):
        base = record({"gemm_seconds": 1.0}, smoke=True)
        report = compare_records(base, record({"gemm_seconds": 1.0}))
        assert report.quarantined and not report.ok

    def test_host_mismatch_downgrades_to_advisory(self):
        base = record({"gemm_seconds": 1.0}, host=HOST_B)
        cand = record({"gemm_seconds": 2.0}, host=HOST_A)
        report = compare_records(base, cand)
        assert report.host_mismatch and report.advisory
        assert report.regressions       # the delta is still reported...
        assert report.ok                # ...but a laptop can't gate a cluster

    def test_strict_host_forces_the_gate(self):
        base = record({"gemm_seconds": 1.0}, host=HOST_B)
        cand = record({"gemm_seconds": 2.0}, host=HOST_A)
        report = compare_records(base, cand, strict_host=True)
        assert not report.advisory and not report.ok

    def test_hosts_comparable_lists_each_difference(self):
        reasons = hosts_comparable(record({}, host=HOST_A),
                                   record({}, host=HOST_B))
        assert len(reasons) == 3
        assert any(r.startswith("machine") for r in reasons)

    def test_zero_baseline_metric_is_skipped(self):
        base = record({"gemm_seconds": 0.0})
        report = compare_records(base, record({"gemm_seconds": 1.0}))
        assert report.deltas == []


class TestNoiseBands:
    def test_noisy_history_widens_the_band(self):
        base = record({"gemm_seconds": 1.0})
        cand = record({"gemm_seconds": 1.3})    # +30%: past the 15% default
        noisy = {"gemm_seconds": [0.7, 1.0, 1.3]}  # cv = 0.3 -> 3 sigma = 90%
        report = compare_records(base, cand, history=noisy)
        (delta,) = report.deltas
        assert delta.threshold == pytest.approx(0.9)
        assert not delta.regressed and report.ok

    def test_short_or_flat_history_keeps_default_band(self):
        base = record({"gemm_seconds": 1.0})
        cand = record({"gemm_seconds": 1.3})
        for history in ({}, {"gemm_seconds": [1.0, 1.0]},
                        {"gemm_seconds": [1.0, 1.0, 1.0]}):
            report = compare_records(base, cand, history=history)
            (delta,) = report.deltas
            assert delta.threshold == pytest.approx(0.15)
            assert delta.regressed


class TestTrajectory:
    def test_append_and_load_round_trip(self, tmp_path):
        rec = record({"gemm_seconds": 1.0, "speedup": 2.5})
        append_trajectory(rec, tmp_path)
        append_trajectory(record({"gemm_seconds": 1.1}), tmp_path)
        history = load_trajectory(tmp_path, "kernels")
        assert history["gemm_seconds"] == [1.0, 1.1]
        assert history["speedup"] == [2.5]

    def test_load_filters_by_benchmark_and_host_key(self, tmp_path):
        append_trajectory(record({"x_seconds": 1.0}), tmp_path)
        append_trajectory(record({"x_seconds": 9.0}, host=HOST_B), tmp_path)
        append_trajectory(record({"x_seconds": 5.0}, benchmark="other"),
                          tmp_path)
        rec = record({})
        history = load_trajectory(tmp_path, "kernels",
                                  host_key=rec.host_key)
        assert history == {"x_seconds": [1.0]}
        assert load_trajectory(tmp_path / "absent", "kernels") == {}

    def test_smoke_records_refused_from_the_trajectory(self, tmp_path):
        with pytest.raises(ValueError):
            append_trajectory(record({"x_seconds": 1.0}, smoke=True),
                              tmp_path)


class TestCommittedBaselines:
    def test_committed_bench_files_satisfy_the_schema(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
        files = committed_records(bench_dir)
        assert files, "no committed benchmark baselines found"
        for path in files:
            rec = load_bench_record(path)   # raises on violation
            assert metric_directions(rec.metrics), (
                f"{path.name}: nothing gateable")

    def test_committed_baseline_self_compare_is_ok(self):
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
        rec = load_bench_record(bench_dir / "BENCH_kernels.json")
        report = compare_records(rec, rec)
        assert report.ok and not report.regressions

    def test_schema_gate_skips_ignored_smoke_files(self, tmp_path):
        """Stale ignored records next to the baselines (``make smoke``
        output, a local full-size ``BENCH_parallel.json``) must not fail
        the lint gate: only committed records are checked."""
        import importlib.util
        import shutil
        from pathlib import Path

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
        """The name rule the gates skip by is the one ``.gitignore``
        applies to ``benchmarks/``."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[3]
        ignored = {line.removeprefix("benchmarks/")
                   for line in (root / ".gitignore").read_text().splitlines()
                   if line.startswith("benchmarks/BENCH_")}
        assert ignored == set(UNTRACKED_RECORDS) | {"BENCH_*_smoke.json"}
