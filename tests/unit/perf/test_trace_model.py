"""Per-trial cost-breakdown tests."""

import pytest

from repro.perf import (
    TrialConfig,
    calibrated_model,
    epoch_breakdown,
)


@pytest.fixture(scope="module")
def model():
    return calibrated_model()


CFG = TrialConfig()


class TestBreakdown:
    def test_total_matches_trial_time(self, model):
        for n in (1, 4, 32):
            bd = epoch_breakdown(model, CFG, n)
            assert bd.total() == pytest.approx(model.trial_time(CFG, n),
                                               rel=1e-9)

    def test_fractions_sum_to_one(self, model):
        fr = epoch_breakdown(model, CFG, 8).fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in fr.values())

    def test_single_gpu_has_no_parallel_overheads(self, model):
        bd = epoch_breakdown(model, CFG, 1)
        assert bd.straggler_wait == 0.0
        assert bd.allreduce == 0.0
        assert bd.framework == 0.0
        assert bd.compute > 0

    def test_straggler_wait_grows_with_gpus(self, model):
        fr4 = epoch_breakdown(model, CFG, 4).fractions()
        fr32 = epoch_breakdown(model, CFG, 32).fractions()
        assert fr32["straggler_wait"] > fr4["straggler_wait"] > 0

    def test_straggler_dominates_other_overheads_under_calibration(self, model):
        """The calibration note: jitter is the main fitted overhead."""
        fr = epoch_breakdown(model, CFG, 32).fractions()
        assert fr["straggler_wait"] > fr["allreduce"]
        assert fr["straggler_wait"] > fr["framework"]
