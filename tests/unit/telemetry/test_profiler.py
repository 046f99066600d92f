"""Step-time attribution, the bottleneck analyzer, the progress table."""

import io

import pytest

from repro.perf import TrialConfig, calibrated_model
from repro.telemetry import (
    ProfileData,
    ProgressReporter,
    StepAttribution,
    TelemetryHub,
    analyze,
    analyze_run_dir,
    build_profile_data,
)
from repro.telemetry.spans import Span


class TestStepAttribution:
    def test_fractions_and_total(self):
        att = StepAttribution(data_wait=1.0, compute=2.0, sync=1.0)
        assert att.total == pytest.approx(4.0)
        assert att.input_bound_fraction == pytest.approx(0.25)
        assert att.sync_overhead_fraction == pytest.approx(0.25)
        with pytest.raises(ValueError):
            att.fraction("gpu")

    def test_add_and_dict_roundtrip(self):
        a = StepAttribution(compute=1.0)
        b = StepAttribution(compute=0.5, checkpoint=0.25)
        merged = a + b
        assert merged.compute == pytest.approx(1.5)
        assert StepAttribution.from_dict(merged.as_dict()) == merged

    def test_from_samples_reads_bucket_counter(self):
        hub = TelemetryHub()
        hub.on_step_bucket("compute", 2.0)
        hub.on_step_bucket("compute", 1.0)
        hub.on_step_bucket("data_wait", 0.5)
        att = StepAttribution.from_samples(hub.metrics.samples())
        assert att.compute == pytest.approx(3.0)
        assert att.data_wait == pytest.approx(0.5)
        assert att.sync == 0.0


class TestCostModelAttribution:
    """Pin the analytic split against the simulator's StepCostModel."""

    def setup_method(self):
        self.model = calibrated_model()
        self.config = TrialConfig()

    def test_single_gpu_has_exactly_zero_sync(self):
        # claim C1: 1-GPU trials pay no gradient-sync overhead at all
        att = StepAttribution.from_cost_model(self.model, self.config, 1)
        assert att.sync == 0.0
        assert att.compute == pytest.approx(
            self.model.step_compute_time(self.config))
        assert att.data_wait == pytest.approx(
            self.model.input_time(self.config))

    @pytest.mark.parametrize("num_gpus", [2, 8, 32])
    def test_multi_gpu_sync_matches_model_terms(self, num_gpus):
        from repro.cluster.collectives import allreduce_time

        m, cfg = self.model, self.config
        att = StepAttribution.from_cost_model(m, cfg, num_gpus)
        compute = m.step_compute_time(cfg)
        comm = allreduce_time(
            m.gradient_bytes(cfg), num_gpus, m.cluster.node.num_gpus,
            m.cluster.node.intra_link, m.cluster.inter_link)
        expected = (compute * (m.sync_factor(num_gpus) - 1.0)
                    + comm + m.framework_overhead(num_gpus))
        assert att.sync == pytest.approx(expected)
        assert att.sync > 0.0

    @pytest.mark.parametrize("num_gpus", [1, 8])
    def test_decomposition_sums_to_step_time(self, num_gpus):
        # the buckets are a *decomposition*, not an approximation:
        # data_wait + compute + sync == step_time, and the checkpoint
        # bucket amortises the fixed per-epoch cost over its steps
        m, cfg = self.model, self.config
        att = StepAttribution.from_cost_model(m, cfg, num_gpus)
        assert att.total == pytest.approx(
            m.step_time(cfg, num_gpus)
            + m.params.epoch_fixed_s / m.steps_per_epoch(cfg, num_gpus))

    def test_sync_overhead_grows_with_scale(self):
        fr = [StepAttribution.from_cost_model(self.model, self.config, n)
              .sync_overhead_fraction for n in (1, 2, 8, 32)]
        assert fr[0] == 0.0
        assert fr == sorted(fr)


class TestAnalyze:
    def _data(self, **buckets):
        return ProfileData(attribution=StepAttribution(**buckets))

    def test_input_bound_verdict_names_claim_c3(self):
        report = analyze(self._data(data_wait=6.0, compute=4.0))
        assert "input-bound" in report.verdict
        assert "C3" in report.verdict
        assert report.input_bound_pct == pytest.approx(60.0)

    def test_sync_bound_verdict_names_claim_c1(self):
        report = analyze(self._data(compute=6.0, sync=4.0))
        assert "sync-bound" in report.verdict
        assert "C1" in report.verdict

    def test_checkpoint_and_compute_verdicts(self):
        assert "checkpoint-bound" in analyze(
            self._data(compute=6.0, checkpoint=4.0)).verdict
        assert "compute-bound" in analyze(
            self._data(compute=9.0, data_wait=1.0)).verdict

    def test_empty_profile_says_so(self):
        report = analyze(ProfileData())
        assert "no step time recorded" in report.verdict
        assert report.gpu_seconds_total == 0.0

    def test_straggler_detection(self):
        data = self._data(compute=1.0)
        data.workers = [
            {"worker_id": 0, "pid": 1, "busy_seconds": 10.0, "tasks": 10},
            {"worker_id": 1, "pid": 2, "busy_seconds": 10.0, "tasks": 10},
            {"worker_id": 2, "pid": 3, "busy_seconds": 20.0, "tasks": 10},
        ]
        report = analyze(data)
        assert report.stragglers == [2]
        assert "straggler" in report.render()

    def test_no_straggler_flag_for_single_worker(self):
        data = self._data(compute=1.0)
        data.workers = [
            {"worker_id": 0, "pid": 1, "busy_seconds": 30.0, "tasks": 3}]
        assert analyze(data).stragglers == []

    def test_top_stages_sorted_by_wall_clock(self):
        data = self._data(compute=1.0)
        data.stage_seconds = {"transform": 1.0, "nifti_decode": 5.0}
        data.stage_elements = {"transform": 10, "nifti_decode": 10}
        report = analyze(data)
        assert [s for s, _, _ in report.top_stages] \
            == ["nifti_decode", "transform"]
        assert "nifti_decode" in report.render()


class TestProfileData:
    def test_roundtrip(self):
        data = ProfileData(
            attribution=StepAttribution(compute=2.0, data_wait=1.0),
            stage_seconds={"decode": 1.5},
            stage_elements={"decode": 3},
            workers=[{"worker_id": 0, "pid": 7,
                      "busy_seconds": 2.0, "tasks": 2}],
            trials=[{"trial_id": "trial_0000", "seconds": 1.0,
                     "worker": 0, "gpu_seconds": 1.0}],
        )
        again = ProfileData.from_dict(data.to_dict())
        assert again.attribution == data.attribution
        assert again.stage_seconds == data.stage_seconds
        assert again.workers == data.workers
        assert again.trials == data.trials

    def test_build_from_hub_measures_and_accounts_trials(self):
        hub = TelemetryHub()
        hub.on_step_bucket("compute", 2.0)
        hub.on_stage("record_read", 0.5, elements=5)
        hub.tracer.record_span("trial_0000", 0.0, 3.0, category="trial")
        data = build_profile_data(hub)
        assert data.source == "measured"
        assert data.attribution.compute == pytest.approx(2.0)
        assert data.stage_seconds["record_read"] == pytest.approx(0.5)
        (trial,) = data.trials
        assert trial["trial_id"] == "trial_0000"
        assert trial["gpu_seconds"] == pytest.approx(3.0)

    def test_cost_model_source_when_only_attached(self):
        hub = TelemetryHub()
        hub.attach_attribution(StepAttribution(compute=1.0))
        data = build_profile_data(hub)
        assert data.source == "cost_model"
        assert data.attribution.compute == pytest.approx(1.0)


class TestAnalyzeRunDir:
    def test_prefers_profile_json(self, tmp_path):
        hub = TelemetryHub(run_dir=tmp_path, profile=True)
        hub.on_step_bucket("data_wait", 9.0)
        hub.on_step_bucket("compute", 1.0)
        hub.flush()
        report = analyze_run_dir(tmp_path)
        assert "input-bound" in report.verdict
        assert report.source == "measured"

    def test_falls_back_to_metrics_jsonl(self, tmp_path):
        hub = TelemetryHub(run_dir=tmp_path)  # plain --telemetry run
        hub.on_step_bucket("compute", 4.0)
        hub.tracer.record_span("trial_0000", 0.0, 2.0, category="trial")
        hub.flush()
        assert not (tmp_path / "profile.json").exists()
        report = analyze_run_dir(tmp_path)
        assert "compute-bound" in report.verdict
        assert report.gpu_seconds_total == pytest.approx(2.0)

    def test_fallback_keeps_worker_rows(self, tmp_path):
        """A process-pool search recorded with plain ``--telemetry``
        still reports its workers: both paths parse metric rows alike."""
        hub = TelemetryHub(run_dir=tmp_path)
        busy = hub.metrics.gauge("execpool_worker_busy_seconds", "",
                                 ("worker",))
        tasks = hub.metrics.counter("execpool_tasks_total", "", ("worker",))
        for worker, seconds in (("0", 2.0), ("1", 6.0)):
            busy.labels(worker=worker).set(seconds)
            tasks.labels(worker=worker).inc()
        hub.flush()
        assert not (tmp_path / "profile.json").exists()
        report = analyze_run_dir(tmp_path)
        assert [(w["worker_id"], w["busy_seconds"], w["tasks"])
                for w in report.workers] == [(0, 2.0, 1), (1, 6.0, 1)]
        assert report.workers == build_profile_data(hub).workers
        assert "workers:" in report.render()

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze_run_dir(tmp_path / "nope")


class _FakeStatus:
    def __init__(self, value):
        self.value = value


class _FakeTrial:
    def __init__(self, trial_id, status, results=(), runtime_s=0.0):
        self.trial_id = trial_id
        self.status = _FakeStatus(status)
        self.results = list(results)
        self.runtime_s = runtime_s


class TestProgressReporter:
    def test_render_shows_running_elapsed_from_open_span(self):
        trials = [
            _FakeTrial("trial_0000", "running",
                       results=[{"val_dice": 0.5}]),
            _FakeTrial("trial_0001", "terminated",
                       results=[{"val_dice": 0.8}], runtime_s=12.0),
            _FakeTrial("trial_0002", "pending"),
        ]
        in_flight = {"trial_0000": Span(name="trial_0000", start=10.0,
                                        category="trial")}
        text = ProgressReporter(stream=io.StringIO()).render(
            trials, in_flight, now=13.5)
        lines = text.splitlines()
        assert "pending: 1" in lines[0] and "running: 1" in lines[0]
        running = next(ln for ln in lines if ln.startswith("trial_0000"))
        assert "3.5" in running
        done = next(ln for ln in lines if ln.startswith("trial_0001"))
        assert "12.0" in done and "0.8000" in done
        pending = next(ln for ln in lines if ln.startswith("trial_0002"))
        assert "None" in pending  # no fake elapsed for queued trials

    def test_update_rate_limited_finish_forced(self):
        t = [0.0]
        stream = io.StringIO()
        rep = ProgressReporter(stream=stream, interval_s=2.0,
                               clock=lambda: t[0])
        trials = [_FakeTrial("trial_0000", "running")]
        rep.update(trials)          # renders (first call)
        rep.update(trials)          # suppressed: 0 s elapsed
        assert rep.renders == 1
        t[0] = 2.5
        rep.update(trials)          # interval passed
        assert rep.renders == 2
        rep.finish(trials)          # forced despite the interval
        assert rep.renders == 3
        assert stream.getvalue().count("== trials") == 3
