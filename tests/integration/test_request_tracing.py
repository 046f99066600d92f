"""End-to-end request tracing through the real 2-process serving stack.

Drives a :class:`~repro.serve.server.ModelServer` with forked replica
workers and asserts the ISSUE's acceptance criteria: one merged Chrome
trace per run whose spans cover a chosen request's full lifecycle
(queue_wait -> batch_wait -> dispatch -> replica compute under the
worker's own pid -> completion), phase durations that telescope to the
observed end-to-end latency, a single ``trace_id`` surviving SIGKILL
fail-over, and the ``distmis trace`` view over the run artefacts.
"""

import importlib.util
import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.checkpoint import CheckpointManager
from repro.nn import UNet3D
from repro.serve import ModelServer, ServeConfig
from repro.telemetry import (
    PHASES,
    TelemetryHub,
    TracingConfig,
    load_request_traces,
)

from .test_serving import (
    SLOW_KW,
    SLOW_SHAPE,
    kill_serving_replica,
    make_model,
    volumes,
)

MODEL_KWARGS = dict(in_channels=1, out_channels=1, base_filters=2,
                    depth=2, use_batchnorm=False)


def _load_trace_validator():
    """Import ``validate_trace_events`` straight from the lint gate so
    the integration trace is held to the exact CI contract."""
    path = Path(__file__).resolve().parents[2] / "tools" / \
        "check_trace_schema.py"
    spec = importlib.util.spec_from_file_location("check_trace_schema",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.validate_trace_events


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    mgr = CheckpointManager(tmp_path_factory.mktemp("trace_ckpt"))
    mgr.save(make_model(), epoch=3, val_dice=0.9)
    return str(mgr.best_path)


def traced_config(checkpoint, **kw):
    base = dict(checkpoint=checkpoint, model_builder=UNet3D,
                model_kwargs=MODEL_KWARGS, replicas=2, max_batch=4,
                max_delay_ms=5.0, heartbeat_s=0.2,
                tracing=TracingConfig(sample_rate=1.0))
    base.update(kw)
    return ServeConfig(**base)


class TestMergedRequestTimeline:
    def test_one_request_one_timeline_across_processes(
            self, checkpoint, tmp_path, capsys):
        run_dir = tmp_path / "run"
        hub = TelemetryHub(run_dir=run_dir)
        with ModelServer(traced_config(checkpoint),
                         telemetry=hub) as server:
            futs = [server.submit(v) for v in volumes(6)]
            server.drain(timeout_s=60)
            responses = [f.result() for f in futs]
            kept = server.request_traces()
        hub.flush()

        # every response carries its context and the telescoping phases
        assert all(r.trace_id for r in responses)
        assert len({r.trace_id for r in responses}) == len(responses)
        for r in responses:
            phase_sum = (r.queue_wait_s + r.batch_wait_s + r.dispatch_s
                         + r.compute_s + r.stitch_s)
            assert phase_sum == pytest.approx(r.latency_s, rel=1e-9,
                                              abs=1e-9)
        # sample_rate=1.0: every request was kept
        assert {t.request_id for t in kept} == \
            {r.request_id for r in responses}

        # pick one request and follow it through the merged trace
        chosen = max(responses, key=lambda r: r.latency_s)
        events = json.loads((run_dir / "trace.json").read_text())
        assert _load_trace_validator()(events, where="trace.json") == []

        mine = [e for e in events if e.get("ph") == "X"
                and e.get("args", {}).get("request_id")
                == chosen.request_id]
        names = {e["name"] for e in mine}
        assert "request" in names
        expected = {p for p in PHASES if {
            "queue_wait": chosen.queue_wait_s,
            "batch_wait": chosen.batch_wait_s,
            "dispatch": chosen.dispatch_s,
            "compute": chosen.compute_s,
            "stitch": chosen.stitch_s}[p] > 0}
        assert expected <= names
        assert {"queue_wait", "compute"} <= names  # lifecycle covered
        # one trace_id stitches every driver span, under the driver pid
        assert {e["args"]["trace_id"] for e in mine} == {chosen.trace_id}
        assert {e["pid"] for e in mine} == {os.getpid()}

        # the replica's own compute span carries the same trace_id but
        # lives under the *worker's* pid (correct process attribution)
        replica_spans = [
            e for e in events if e.get("ph") == "X"
            and e["name"] == "replica_compute"
            and chosen.trace_id in e.get("args", {}).get("trace_ids", [])]
        assert replica_spans, "replica compute span never crossed back"
        worker_pids = {e["pid"] for e in replica_spans}
        assert os.getpid() not in worker_pids
        process_names = {e["pid"]: e["args"]["name"] for e in events
                         if e.get("ph") == "M"
                         and e.get("name") == "process_name"}
        for pid in worker_pids:
            assert process_names[pid].startswith("worker-")
        # per-op kernel children accompany the replica span
        assert any(e["name"].startswith("kernel:") for e in events
                   if e.get("ph") == "X" and e["pid"] in worker_pids)

        # requests.jsonl landed and distmis trace renders the waterfall
        traces = load_request_traces(run_dir)
        assert {t.request_id for t in traces} == \
            {r.request_id for r in responses}
        assert cli_main(["trace", str(run_dir),
                         "--request", chosen.request_id]) == 0
        out = capsys.readouterr().out
        assert chosen.request_id in out
        assert f"trace {chosen.trace_id}" in out
        assert "dominant phase:" in out

    def test_summary_and_slowest_views(self, checkpoint, tmp_path,
                                       capsys):
        run_dir = tmp_path / "run"
        hub = TelemetryHub(run_dir=run_dir)
        with ModelServer(traced_config(checkpoint),
                         telemetry=hub) as server:
            futs = [server.submit(v) for v in volumes(4)]
            server.drain(timeout_s=60)
            for f in futs:
                f.result()
        hub.flush()
        assert cli_main(["trace", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "kept request trace(s)" in out
        assert "dominant phase across kept traces:" in out
        assert "slowest kept request:" in out
        assert cli_main(["trace", str(run_dir), "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("dominant phase:") == 2
        # an unknown request id fails loudly, not silently
        assert cli_main(["trace", str(run_dir),
                         "--request", "req_nope"]) == 1

    def test_trace_cli_without_artefacts_exits_nonzero(self, tmp_path):
        assert cli_main(["trace", str(tmp_path)]) == 1

    def test_compute_is_the_replica_window_when_polled_late(
            self, checkpoint):
        """The driver reads the "started" and "done" messages of a
        request it polls only after the replica finished in one step;
        compute still spans the replica's own model call, not that
        step's microseconds (nor is it charged to batch_wait)."""
        with ModelServer(traced_config(checkpoint, replicas=1),
                         telemetry=TelemetryHub()) as server:
            server.submit(volumes(1)[0])
            server.drain(timeout_s=60)  # the replica is up and warm
            fut = server.submit(volumes(1, seed=1)[0])
            deadline = time.monotonic() + 30.0
            while not server._inflight:
                assert time.monotonic() < deadline
                server.step()
            time.sleep(0.5)  # the replica finishes long before the poll
            server.drain(timeout_s=60)
            r = fut.result()
        assert r.model_seconds > 0
        assert r.compute_s >= 0.9 * r.model_seconds
        assert r.batch_wait_s < 0.4  # the poll came >= 0.5 s after it ran


class TestFailOverTracing:
    def test_sigkill_retry_keeps_one_trace_id(self, checkpoint, tmp_path):
        """A request that survives a replica SIGKILL via resubmission
        completes under the trace_id minted at admission -- one request,
        one trace, across attempts."""
        hub = TelemetryHub(run_dir=tmp_path / "run")
        cfg = traced_config(checkpoint, replicas=1, max_batch=2,
                            max_retries=2, **SLOW_KW)
        with ModelServer(cfg, telemetry=hub) as server:
            futs = [server.submit(v)
                    for v in volumes(2, shape=SLOW_SHAPE)]
            minted = {f.request_id:
                      server._pending[f.request_id].ctx.trace_id
                      for f in futs}
            server.step()
            kill_serving_replica(server)
            server.drain(timeout_s=120)
            responses = [f.result() for f in futs]
            kept = {t.request_id: t for t in server.request_traces()}
        assert all(r.attempt >= 1 for r in responses)
        for r in responses:
            # the response's trace is the admission-minted one
            assert r.trace_id == minted[r.request_id]
            # exactly one kept trace per request, flagged as retried
            t = kept[r.request_id]
            assert t.trace_id == r.trace_id
            assert t.keep_reason == "retried"
            assert t.attempt == r.attempt

    def test_exhausted_retries_trace_the_error(self, checkpoint,
                                               tmp_path):
        hub = TelemetryHub(run_dir=tmp_path / "run")
        cfg = traced_config(checkpoint, replicas=1, max_batch=2,
                            max_retries=0, **SLOW_KW)
        with ModelServer(cfg, telemetry=hub) as server:
            futs = [server.submit(v)
                    for v in volumes(2, shape=SLOW_SHAPE)]
            server.step()
            kill_serving_replica(server)
            server.drain(timeout_s=60)
            for fut in futs:
                with pytest.raises(RuntimeError, match="died mid-batch"):
                    fut.result()
            kept = {t.request_id: t for t in server.request_traces()}
        assert len(kept) == 2
        for t in kept.values():
            assert t.keep_reason == "error"
            assert t.error and "died" in t.error


class TestSamplingUnderLoad:
    def test_default_sampling_bounds_kept_traces(self, checkpoint):
        """With the default tail-based policy a healthy burst keeps only
        a subset of traces, and every response still gets its phases."""
        cfg = traced_config(
            checkpoint, replicas=1,
            tracing=TracingConfig(sample_rate=0.05, min_window=10**6))
        with ModelServer(cfg) as server:
            futs = [server.submit(v) for v in volumes(24)]
            server.drain(timeout_s=120)
            responses = [f.result() for f in futs]
            kept = server.request_traces()
        assert len(kept) < len(responses)
        assert all(r.trace_id for r in responses)  # context always minted
        assert server.latency_quantile(0.5) > 0
        buckets = server.latency_histogram()
        assert buckets[-1][1] == len(responses)  # cumulative count
