"""End-to-end profiling: cross-process trace merge, and the profiler's
verdicts pinned to the paper's claims C1 (zero sync overhead for
experiment parallelism) and C3 (raw NIfTI decode dominates the input
pipeline) on really-executed runs."""

import json
import os

from repro.core import (
    ExperimentSettings,
    HyperparameterSpace,
    MISPipeline,
    train_trial,
)
from repro.core.runner import DistMISRunner
from repro.telemetry import StepAttribution, TelemetryHub, analyze_run_dir


def _settings(**overrides):
    base = dict(num_subjects=6, volume_shape=(8, 8, 8), epochs=1,
                base_filters=2, depth=2)
    base.update(overrides)
    return ExperimentSettings(**base)


class TestProfiledProcessSearch:
    def test_merged_trace_spans_multiple_worker_pids(self, tmp_path):
        hub = TelemetryHub(run_dir=tmp_path / "run", profile=True)
        runner = DistMISRunner(
            space=HyperparameterSpace({"learning_rate": [3e-3, 1e-3],
                                       "loss": ["dice", "bce"]}),
            settings=_settings(epochs=2),
            telemetry=hub,
        )
        result = runner.run_inprocess("experiment_parallel",
                                      executor="process", max_workers=2)
        assert len(result.outcomes) == 4

        run_dir = tmp_path / "run"
        trace = json.loads((run_dir / "trace.json").read_text())
        spans = [e for e in trace if e["ph"] == "X"]
        driver_pid = os.getpid()

        # one merged Chrome trace with spans from >= 2 worker pids
        worker_pids = {e["pid"] for e in spans if e["pid"] != driver_pid}
        assert len(worker_pids) >= 2
        assert any(e["pid"] == driver_pid for e in spans)

        # every process row is named, and the anchor is recorded
        names = {e["args"]["name"] for e in trace
                 if e["name"] == "process_name"}
        assert "driver" in names
        assert sum(n.startswith("worker-") for n in names) >= 2
        (anchor,) = [e for e in trace if e["name"] == "clock_anchor"]
        assert anchor["args"]["wall_t0_unix"] == hub.tracer.wall_t0

        # alignment: worker spans sit inside the driver's run window
        (run_span,) = [e for e in spans if e["cat"] == "run"]
        run_end = run_span["ts"] + run_span["dur"]
        for e in spans:
            if e["pid"] != driver_pid:
                assert e["ts"] >= 0.0
                assert e["ts"] + e["dur"] <= run_end + 1e6  # 1 s slack

        # worker-side training metrics survive the merge
        rows = [json.loads(line) for line in
                (run_dir / "metrics.jsonl").read_text().splitlines()]
        by_name = {r["name"]: r for r in rows
                   if not r.get("labels")}
        assert by_name["train_steps_total"]["value"] > 0

        # profile.json + the analyzer verdict work off the run dir
        profile = json.loads((run_dir / "profile.json").read_text())
        assert profile["source"] == "measured"
        assert sum(profile["buckets"].values()) > 0
        assert len(profile["workers"]) >= 2
        assert len(profile["trials"]) == 4
        report = analyze_run_dir(run_dir)
        assert report.verdict
        assert report.gpu_seconds_total > 0


class TestClaimC3:
    def test_input_bound_fraction_rises_with_online_nifti(self):
        # same cohort, same training -- only the ingestion path differs:
        # offline-binarised records vs per-epoch online NIfTI decode
        config = {"learning_rate": 3e-3, "loss": "dice"}
        settings = _settings(volume_shape=(16, 16, 16))

        fractions = {}
        outcomes = {}
        for mode in ("records", "nifti"):
            hub = TelemetryHub(profile=True)
            pipeline = MISPipeline(settings, telemetry=hub, input_mode=mode)
            outcomes[mode] = train_trial(config, settings, pipeline,
                                         telemetry=hub)
            att = StepAttribution.from_samples(hub.metrics.samples())
            assert att.total > 0
            fractions[mode] = att.input_bound_fraction
            if mode == "nifti":
                stages = {r["labels"]["stage"] for r in hub.metrics.samples()
                          if r["name"] == "pipeline_stage_seconds_total"}
                assert "nifti_decode" in stages

        # claim C3: the online path spends strictly more of its step
        # time waiting on data than the binarised one
        assert fractions["nifti"] > fractions["records"]
        # both ingestion paths feed bit-identical tensors
        assert outcomes["nifti"].val_dice == outcomes["records"].val_dice


class TestClaimC1:
    def test_sync_bucket_nonzero_only_for_data_parallel(self):
        config = {"learning_rate": 3e-3, "loss": "dice"}
        settings = _settings()

        sync = {}
        for replicas in (1, 2):
            hub = TelemetryHub(profile=True)
            pipeline = MISPipeline(settings, telemetry=hub)
            train_trial(config, settings, pipeline,
                        num_replicas=replicas, telemetry=hub)
            att = StepAttribution.from_samples(hub.metrics.samples())
            assert att.compute > 0
            sync[replicas] = att.sync

        # claim C1: independent 1-replica trials pay exactly zero
        # gradient synchronisation; the data-parallel path pays real time
        assert sync[1] == 0.0
        assert sync[2] > 0.0


class TestProfileCLI:
    def test_search_profile_flag_and_profile_command(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "prof"
        rc = main([
            "search", "--subjects", "6", "--volume", "8", "8", "8",
            "--epochs", "1", "--base-filters", "2", "--depth", "2",
            "--lr", "3e-3", "--losses", "dice",
            "--profile", str(run_dir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== trials" in out          # live progress table
        assert "bottleneck report" in out  # final verdict
        assert (run_dir / "profile.json").exists()

        rc = main(["profile", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "step-time attribution" in out
        assert "verdict:" in out

    def test_telemetry_fallback_prints_no_pid_0(self, tmp_path, capsys):
        """A plain ``--telemetry`` run has no profile.json, and its
        metrics.jsonl names no worker pids: the fallback prints them as
        unknown, not as ``pid 0``."""
        from repro.cli import main

        run_dir = tmp_path / "tel"
        rc = main([
            "search", "--subjects", "6", "--volume", "8", "8", "8",
            "--epochs", "1", "--base-filters", "2", "--depth", "2",
            "--lr", "3e-3", "1e-3", "--losses", "dice",
            "--executor", "process", "--gpus", "2",
            "--telemetry", str(run_dir),
        ])
        assert rc == 0
        assert not (run_dir / "profile.json").exists()
        capsys.readouterr()
        assert main(["profile", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pid 0" not in out
        assert out.count("(pid unknown)") == 2

    def test_profile_command_rejects_empty_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["profile", str(tmp_path)]) == 1
        assert "profile.json" in capsys.readouterr().err

    def test_simulate_profile_uses_cost_model(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "sim"
        rc = main(["simulate", "experiment_parallel", "4",
                   "--seed", "0", "--profile", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck report (source: cost_model)" in out
        profile = json.loads((run_dir / "profile.json").read_text())
        assert profile["source"] == "cost_model"
        # experiment-parallel trials are 1-GPU: zero sync (claim C1)
        assert profile["buckets"]["sync"] == 0.0

    def test_simulate_profile_data_parallel_has_sync(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "simdp"
        rc = main(["simulate", "data_parallel", "8",
                   "--seed", "0", "--profile", str(run_dir)])
        assert rc == 0
        profile = json.loads((run_dir / "profile.json").read_text())
        assert profile["buckets"]["sync"] > 0.0
