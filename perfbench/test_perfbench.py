"""Tests of the benchmark harness itself.

Not collected by tier-1 (``testpaths = tests``); run with
``python3 -m pytest perfbench/test_perfbench.py`` (about two minutes:
the smoke test runs every workload in both trace modes at
``--seconds 2``).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import spec
from perfbench.measure import (SpanLog, arrival_schedule, percentile,
                               windowed_percentile)
from perfbench.workloads import (Request, ServeInputs, drive_open_loop,
                                 timed_operations)

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


# -- percentile rule ---------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 90) == pytest.approx(np.percentile(samples, 90))
    assert percentile([3.0, 1.0, 2.0], 50, strict=False) == 2.0


def test_percentile_refuses_without_ten_samples_beyond():
    assert spec.samples_beyond(100, 90) == 10
    assert spec.samples_beyond(104, 90) == 10
    assert spec.samples_beyond(99, 90) == 9
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(list(range(19)), 50)
    # a shortened smoke run may ask anyway
    assert percentile(list(range(8)), 90, strict=False) == pytest.approx(6.3)


def test_windowed_percentile_passes_a_stall_by():
    # 10 windows of 20 samples at 1..20 ms; a stall lifts the whole of
    # windows 3 and 4 by 500 ms
    at = [w + i / 20.0 for w in range(10) for i in range(20)]
    quiet = [float(i + 1) for _ in range(10) for i in range(20)]
    stalled = [v + 500.0 if 3 <= t < 5 else v for t, v in zip(at, quiet)]
    assert percentile(stalled, 90) > 500.0
    assert windowed_percentile(at, stalled, 90, 1.0) == pytest.approx(
        windowed_percentile(at, quiet, 90, 1.0)) == pytest.approx(18.1)
    # the ten-beyond rule counts the whole run's samples
    with pytest.raises(ValueError, match="fewer than 10"):
        windowed_percentile(at[:99], quiet[:99], 90, 1.0)


# -- arrival schedule --------------------------------------------------------
def test_schedule_is_a_function_of_the_seed_only():
    a = arrival_schedule(7, rate=60.0, seconds=16.0)
    b = arrival_schedule(7, rate=60.0, seconds=16.0)
    c = arrival_schedule(8, rate=60.0, seconds=16.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # every seed offers the same load inside the window, in order
    assert len(a) == len(c) == 960
    assert np.all(np.diff(a) >= 0) and 0.0 <= a[0] and a[-1] < 16.0
    # Poisson-like gaps: far from the regular 1/rate spacing
    gaps = np.diff(a)
    assert gaps.std() > 0.5 * gaps.mean()


# -- open loop ---------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


class _FakeFuture:
    def __init__(self):
        self.ready = False

    def done(self) -> bool:
        return self.ready


class _StallingServer:
    """Answers 10 ms after admission; the first ``step`` after the first
    admission blocks 500 ms."""

    def __init__(self, clock):
        self.clock = clock
        self.stalled = False
        self.queue = []
        self.batcher = types.SimpleNamespace(next_deadline=lambda: None)

    def submit(self, volume):
        future = _FakeFuture()
        self.queue.append((self.clock() + 0.010, future))
        return future

    def step(self):
        if self.queue and not self.stalled:
            self.stalled = True
            self.clock.sleep(0.5)
        for ready_at, future in self.queue:
            future.ready = ready_at <= self.clock()


def test_open_loop_latency_runs_from_the_due_time():
    clock = _FakeClock()
    inputs = ServeInputs(config=None, small=["volume"], large=[],
                         due=np.array([0.0, 0.1, 0.2, 1.0]), large_every=0)
    requests = drive_open_loop(_StallingServer(clock), inputs,
                               clock=clock, sleep=clock.sleep)
    assert [r.index for r in requests] == [0, 1, 2, 3]
    assert all(r.done is not None for r in requests)
    assert requests[1].due - requests[0].due == pytest.approx(0.1)
    # requests 1 and 2 fell due during the stall: sent late, and the
    # wait the stall imposed is part of their latency
    for late in requests[1:3]:
        assert late.sent - late.due > 0.25
        assert late.done - late.due > 0.25
        assert late.done - late.sent < 0.05   # what a closed loop would see
    # request 3 fell due after the stall: on time
    assert requests[3].sent - requests[3].due < 0.006
    assert requests[3].done - requests[3].due < 0.03


def test_timed_operations_follow_the_schedule_only():
    def request(index, large, due):
        return Request(index, large, 0, due, due, due, future=None,
                       done=due + 0.03)

    requests = [request(0, False, 0.00), request(1, True, 0.10),
                request(2, False, 0.12), request(3, False, 0.169),
                request(4, False, 0.171), request(5, True, 0.50),
                request(6, False, 0.50)]
    answered = [(q, "response") for q in requests if q.index != 2]
    inputs = ServeInputs(config=None, small=[], large=[], due=np.zeros(0),
                         large_every=0)
    assert [q.index for q, _ in timed_operations(
        inputs, requests, answered)] == [0, 3, 4, 6]
    inputs.behind_s = 0.070
    # 3 and 6 are due inside [large due, large due + 70 ms); 2 too, but
    # it was never answered and counts under `failed` instead
    assert [q.index for q, _ in timed_operations(
        inputs, requests, answered)] == [3, 6]


# -- spans -------------------------------------------------------------------
def test_span_self_time_subtracts_what_children_cover():
    log = SpanLog()
    root = log.add("root", "a", 0.0, 10.0)
    first = log.add("c1", "b", 1.0, 3.0, root)
    log.add("c2", "b", 2.0, 5.0, root)          # overlaps c1
    log.add("c3", "c", 8.0, 12.0, root)         # runs past the parent
    log.add("grandchild", "c", 1.0, 2.0, first)
    self_times = log.self_times()
    # children cover [1, 5] and [8, 10] of the root
    assert self_times[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_times[first] == pytest.approx(1.0)
    assert log.layer_self_seconds() == pytest.approx(
        {"a": 4.0, "b": 1.0 + 3.0, "c": 4.0 + 1.0})


def test_chrome_trace_has_one_row_per_trace_id(tmp_path):
    log = SpanLog()
    outer = log.add("outer", "bench", 0.0, 2.0, trace_id="t1")
    log.add("inner", "nn", 0.5, 1.0, outer, "t1")
    log.add("other", "serve", 0.0, 1.0, trace_id="t2")
    path = tmp_path / "x.trace.json"
    log.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "other"]
    assert events[0]["tid"] == events[1]["tid"] != events[2]["tid"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- declarations ------------------------------------------------------------
def test_check_passes_on_the_committed_benchmark_json():
    proc = subprocess.run(RUN + ["--check"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_catches_a_drifted_declaration():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec.check_declarations(benchmark) == []
    drifted = copy.deepcopy(benchmark)
    drifted["end_to_end"][1]["bound"] = 0.3
    drifted["workloads"][0]["why"] = "something else"
    drifted["per_layer"].pop()
    problems = spec.check_declarations(drifted)
    assert len(problems) == 3


def test_declared_sizes_support_every_p90():
    for name in spec.WORKLOADS:
        n = spec.op_samples_for(name, spec.RUN_SECONDS)
        assert spec.samples_beyond(n, 90) >= 10, (name, n)
    assert spec.op_samples_for("search_pool", 16) == 104
    assert spec.op_samples_for("train_dp2", 16) == 129
    assert spec.requests_for("serve_mixed", 16) == (920, 40)
    assert spec.op_samples_for("serve_mixed", 16) == 161
    # the count of small requests behind a large one varies with the
    # seed; the schedule alone decides it
    due = arrival_schedule(7, rate=60.0, seconds=16.0)
    large = (np.arange(len(due)) + 1) % 24 == 0
    behind = sum(np.any((due[large] <= t) & (t < due[large] + 0.070))
                 for t in due[~large])
    assert 120 <= behind <= 210
    assert spec.attempted_for("serve_small", 16) == 960


# -- smoke: every workload, both trace modes ---------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_is_correct_with_every_declared_metric(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "2",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    if trace == 0:
        assert result["attempted"] == spec.attempted_for(workload, 2)
        assert list(metrics) == [m[0] for m in spec.END_TO_END]
        for name, unit, _, _ in spec.END_TO_END:
            assert metrics[name]["unit"] == unit
            assert metrics[name]["value"] > 0, name
        return
    assert list(metrics) == [m[0] for m in spec.PER_LAYER]
    for name, unit, _, exercised in spec.PER_LAYER:
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit
        if workload not in exercised:
            assert value == 0, name
        elif name not in spec.MAY_BE_ZERO:
            assert value > 0, name
    trace_file = HERE / "out" / f"{workload}.trace.json"
    assert json.loads(trace_file.read_text())["traceEvents"]
    # the per-run scratch directory is gone
    assert not list((HERE / "out").glob("run-*"))
