"""Hyperband scheduler and trial-retry tests."""

import pytest

from repro.fault_tolerance import RetryPolicy
from repro.fault_tolerance import RetryPolicy
from repro.raysim import (
    GridSearch,
    HyperbandScheduler,
    TrialStatus,
    tune_run,
)
from repro.raysim.tune import Trial


class TestHyperband:
    def test_star_import_exports_scheduler(self):
        ns = {}
        exec("from repro.raysim.tune import *", ns)
        assert "HyperbandScheduler" in ns
        assert "RetryPolicy" in ns
        assert "CheckpointHandle" in ns

    def test_brackets_have_increasing_grace(self):
        hb = HyperbandScheduler("dice", max_t=81, reduction_factor=3,
                                num_brackets=3)
        graces = [b.grace for b in hb.brackets]
        assert graces == sorted(graces)
        assert len(set(graces)) == 3

    def test_round_robin_bracket_assignment(self):
        hb = HyperbandScheduler("dice", max_t=27, num_brackets=3)

        def trainable(config, reporter):
            for e in range(1, 28):
                if not reporter(epoch=e, dice=config["q"]):
                    return None

        tune_run(trainable, GridSearch({"q": [0.9, 0.5, 0.1, 0.8, 0.2, 0.7]}),
                 scheduler=hb)
        brackets = set(hb._assignment.values())
        assert brackets == {0, 1, 2}

    def test_stops_weak_trials_keeps_strong(self):
        hb = HyperbandScheduler("dice", max_t=16, reduction_factor=2,
                                num_brackets=2)

        def trainable(config, reporter):
            for e in range(1, 17):
                if not reporter(epoch=e, dice=config["q"]):
                    return None

        analysis = tune_run(
            trainable,
            GridSearch({"q": [0.9, 0.8, 0.7, 0.3, 0.2, 0.1, 0.05, 0.02]}),
            scheduler=hb,
        )
        stopped = [t for t in analysis.trials if t.status is TrialStatus.STOPPED]
        assert stopped
        assert analysis.best_trial("dice").config["q"] == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperbandScheduler("dice", num_brackets=0)

    def test_brackets_isolate_rung_records(self):
        hb = HyperbandScheduler("dice", max_t=16, reduction_factor=2,
                                num_brackets=2)
        ta, tb = Trial("a", {}), Trial("b", {})
        ba, bb = hb.bracket_of(ta), hb.bracket_of(tb)
        assert ba is not bb
        hb.on_result(ta, {"epoch": ba.grace, "dice": 0.9})
        hb.on_result(tb, {"epoch": bb.grace, "dice": 0.8})
        assert 0.8 not in ba._rungs.get(0, [])
        assert 0.9 not in bb._rungs.get(0, [])

    def test_retry_rolls_back_only_own_bracket(self):
        hb = HyperbandScheduler("dice", max_t=16, reduction_factor=2,
                                num_brackets=2)
        ta, tb = Trial("a", {}), Trial("b", {})
        ba, bb = hb.bracket_of(ta), hb.bracket_of(tb)
        hb.on_result(ta, {"epoch": ba.grace, "dice": 0.9})
        hb.on_result(tb, {"epoch": bb.grace, "dice": 0.8})
        hb.on_trial_retry(ta, keep_up_to=None)
        assert all(not vals for vals in ba._rungs.values())
        assert any(vals for vals in bb._rungs.values())


class TestRetries:
    def test_flaky_trial_retried_to_success(self):
        attempts = {"n": 0}

        def trainable(config, reporter):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient failure")
            reporter(score=1.0)
            return {"score": 1.0}

        analysis = tune_run(trainable, GridSearch({"a": [1]}),
                            retry_policy=RetryPolicy(max_retries=3))
        trial = analysis.trials[0]
        assert trial.status is TrialStatus.TERMINATED
        assert trial.retries == 2
        assert analysis.num_errors() == 0

    def test_persistent_failure_exhausts_retries(self):
        def trainable(config, reporter):
            raise RuntimeError("hard failure")

        analysis = tune_run(trainable, GridSearch({"a": [1]}),
                            retry_policy=RetryPolicy(max_retries=2))
        trial = analysis.trials[0]
        assert trial.status is TrialStatus.ERROR
        assert trial.retries == 2
        assert "hard failure" in trial.error

    def test_retry_clears_partial_results(self):
        calls = {"n": 0}

        def trainable(config, reporter):
            calls["n"] += 1
            reporter(score=0.1 * calls["n"])
            if calls["n"] == 1:
                raise RuntimeError("fail after first report")
            reporter(score=0.9)
            return None

        analysis = tune_run(trainable, GridSearch({"a": [1]}),
                            retry_policy=RetryPolicy(max_retries=1))
        trial = analysis.trials[0]
        # only the successful attempt's rows remain
        assert [r["score"] for r in trial.results] == [
            pytest.approx(0.2), pytest.approx(0.9)
        ]

    def test_no_retries_by_default(self):
        calls = {"n": 0}

        def trainable(config, reporter):
            calls["n"] += 1
            raise RuntimeError("boom")

        tune_run(trainable, GridSearch({"a": [1]}))
        assert calls["n"] == 1
