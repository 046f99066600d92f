"""TelemetryHub wiring, the null sink, and the end-to-end run directory."""

import json

import pytest

from repro.cluster import Timeline
from repro.telemetry import (
    NULL_HUB,
    NullHub,
    TelemetryHub,
    get_hub,
    set_hub,
)


class TestLiveHub:
    def test_on_stage_feeds_metrics_and_trace(self):
        hub = TelemetryHub()
        hub.on_stage("binarize.train", 0.25, elements=4)
        fam = hub.metrics.get("pipeline_stage_seconds_total")
        assert fam.labels(stage="binarize.train").value == pytest.approx(0.25)
        (sp,) = hub.tracer.closed_spans()
        assert sp.category == "pipeline"
        assert sp.duration == pytest.approx(0.25)

    def test_flush_writes_run_dir(self, tmp_path):
        hub = TelemetryHub(run_dir=tmp_path / "run")
        hub.metrics.counter("x_total").inc()
        with hub.span("work"):
            pass
        sim = Timeline()
        sim.record("sim", 0.0, 1.0, "gpu0")
        hub.attach_timeline(sim)
        out = hub.finalize_run("test", config={"a": 1}, seed=0,
                               final_metrics={"m": 2})
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "metrics.jsonl", "metrics.prom",
                         "trace.json"}
        trace = json.loads((out / "trace.json").read_text())
        spans = [e for e in trace if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"work", "sim"}
        # the wall-clock anchor rides along as a metadata event
        (anchor,) = [e for e in trace if e["name"] == "clock_anchor"]
        assert anchor["ph"] == "M"
        assert anchor["args"]["wall_t0_unix"] == hub.tracer.wall_t0

    def test_flush_without_run_dir_is_noop(self):
        assert TelemetryHub().flush() is None

    def test_flush_is_crash_safe(self, tmp_path, monkeypatch):
        # flush rewrites every artefact wholesale; an interrupt mid-write
        # must leave the previous file intact and no temp litter behind
        import repro.telemetry.fsio as fsio

        hub = TelemetryHub(run_dir=tmp_path)
        hub.metrics.counter("x_total").inc()
        hub.flush()
        before = (tmp_path / "metrics.jsonl").read_text()

        real_replace = fsio.os.replace

        def boom(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(fsio.os, "replace", boom)
        hub.metrics.counter("x_total").inc()
        with pytest.raises(OSError):
            hub.flush()
        monkeypatch.setattr(fsio.os, "replace", real_replace)
        assert (tmp_path / "metrics.jsonl").read_text() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_profile_flush_writes_profile_json(self, tmp_path):
        hub = TelemetryHub(run_dir=tmp_path, profile=True)
        hub.on_step_bucket("compute", 1.5)
        hub.flush()
        data = json.loads((tmp_path / "profile.json").read_text())
        assert data["buckets"]["compute"] == pytest.approx(1.5)
        assert data["source"] == "measured"

    def test_default_hub_swap(self):
        hub = TelemetryHub()
        try:
            set_hub(hub)
            assert get_hub() is hub
        finally:
            set_hub(None)
        assert get_hub() is NULL_HUB


class TestNullSink:
    def test_disabled_and_silent(self, tmp_path):
        hub = NullHub()
        assert hub.enabled is False
        # every recording path is a no-op that returns a reusable object
        m = hub.metrics.counter("x_total", "h", ("a",))
        assert m.labels(a=1) is m
        m.inc()
        m.observe(1.0)
        m.set(2.0)
        with hub.span("s") as sp:
            sp.set(k=1)
        hub.on_stage("stage", 0.1)
        hub.attach_timeline(Timeline())
        assert hub.flush(tmp_path / "nothing") is None
        assert hub.finalize_run("kind") is None
        assert not (tmp_path / "nothing").exists()

    def test_null_registry_empty(self):
        hub = NullHub()
        assert len(hub.metrics) == 0
        assert hub.metrics.to_prometheus() == ""
        assert hub.tracer.to_chrome_trace() == []

    def test_instrumented_handles_preresolved_once(self):
        # the branch-free contract: code resolves handles at construction
        # and calls plain methods per event -- on the null twin every one
        # of those is the same shared no-op object
        hub = NULL_HUB
        h1 = hub.metrics.histogram("a", buckets=(1,))
        h2 = hub.metrics.counter("b")
        assert h1 is h2


class TestEndToEnd:
    def test_run_inprocess_emits_full_run_dir(self, tmp_path):
        from repro.core import ExperimentSettings, HyperparameterSpace
        from repro.core.runner import DistMISRunner

        hub = TelemetryHub(run_dir=tmp_path / "run")
        runner = DistMISRunner(
            space=HyperparameterSpace({"learning_rate": [3e-3],
                                       "loss": ["dice"]}),
            settings=ExperimentSettings(num_subjects=6,
                                        volume_shape=(8, 8, 8),
                                        epochs=1, base_filters=2, depth=2),
            telemetry=hub,
        )
        result = runner.run_inprocess("experiment_parallel")
        assert result.best().val_dice >= 0.0

        run_dir = tmp_path / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["kind"] == "inprocess/experiment_parallel"
        assert manifest["final_metrics"]["num_trials"] == 1

        rows = [json.loads(line) for line in
                (run_dir / "metrics.jsonl").read_text().splitlines()]
        names = {r["name"] for r in rows}
        assert {"train_steps_total", "train_step_seconds", "train_loss",
                "pipeline_stage_seconds_total",
                "tune_trials_total"} <= names
        steps = next(r for r in rows if r["name"] == "train_steps_total")
        assert steps["value"] > 0

        prom = (run_dir / "metrics.prom").read_text()
        assert "# TYPE train_step_seconds histogram" in prom

        trace = json.loads((run_dir / "trace.json").read_text())
        cats = {e["cat"] for e in trace}
        # training-loop spans AND pipeline-stage spans in one view
        assert {"train", "pipeline", "run", "trial", "eval"} <= cats

    def test_disabled_run_writes_nothing(self, tmp_path):
        from repro.core import ExperimentSettings, HyperparameterSpace
        from repro.core.runner import DistMISRunner

        runner = DistMISRunner(
            space=HyperparameterSpace({"learning_rate": [3e-3],
                                       "loss": ["dice"]}),
            settings=ExperimentSettings(num_subjects=6,
                                        volume_shape=(8, 8, 8),
                                        epochs=1, base_filters=2, depth=2),
            telemetry=NULL_HUB,
        )
        runner.run_inprocess("experiment_parallel")
        assert list(tmp_path.iterdir()) == []

    def test_simulate_merges_sim_timeline(self, tmp_path):
        from repro.core.runner import DistMISRunner

        hub = TelemetryHub(run_dir=tmp_path / "sim")
        run = DistMISRunner(telemetry=hub).simulate("experiment_parallel", 4,
                                                    seed=0)
        assert run.elapsed_seconds > 0
        trace = json.loads((tmp_path / "sim" / "trace.json").read_text())
        pids = {e["pid"] for e in trace}
        assert pids == {0, 1}  # real spans + the simulated timeline
