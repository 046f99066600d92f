"""Learning-rate schedule tests, including the paper's scaling rule."""

import pytest

from repro.nn import ConstantLR, CyclicLR, linear_scaling_rule


class TestConstant:
    def test_value(self):
        s = ConstantLR(1e-4)
        assert s(0) == s(1000) == 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)


class TestCyclic:
    def test_triangular_waveform(self):
        s = CyclicLR(base_lr=0.1, max_lr=1.0, step_size=10)
        assert s(0) == pytest.approx(0.1)
        assert s(10) == pytest.approx(1.0)   # peak
        assert s(20) == pytest.approx(0.1)   # trough
        assert s(5) == pytest.approx(0.55)   # mid-ramp

    def test_triangular2_halves_amplitude(self):
        s = CyclicLR(0.0, 1.0, step_size=10, mode="triangular2")
        assert s(10) == pytest.approx(1.0)
        assert s(30) == pytest.approx(0.5)

    def test_bounds_respected_everywhere(self):
        s = CyclicLR(1e-4, 1e-3, step_size=7)
        vals = [s(t) for t in range(100)]
        assert min(vals) >= 1e-4 - 1e-12
        assert max(vals) <= 1e-3 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicLR(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            CyclicLR(0.1, 1.0, 0)
        with pytest.raises(ValueError):
            CyclicLR(0.1, 1.0, 10, mode="sawtooth")


class TestLinearScalingRule:
    def test_paper_rule(self):
        """Section IV-B: initial LR = 1e-4 x #GPUs."""
        assert linear_scaling_rule(1e-4, 1) == pytest.approx(1e-4)
        assert linear_scaling_rule(1e-4, 32) == pytest.approx(3.2e-3)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            linear_scaling_rule(1e-4, 0)


class TestCyclicWaveform:
    """The triangular rate of Smith 2017 (paper reference [38]) at each
    point of its cycle: base 0.1, peak 1.0, half-period 4 updates."""

    @pytest.mark.parametrize("step, lr", [
        (0, 0.1), (1, 0.325), (2, 0.55), (3, 0.775), (4, 1.0),
        (5, 0.775), (6, 0.55), (7, 0.325), (8, 0.1), (12, 1.0),
    ])
    def test_triangular_values(self, step, lr):
        assert CyclicLR(0.1, 1.0, step_size=4)(step) == pytest.approx(lr)

    @pytest.mark.parametrize("cycle, peak", [(0, 1.0), (1, 0.5), (2, 0.25),
                                             (3, 0.125)])
    def test_triangular2_peak_halves_each_cycle(self, cycle, peak):
        s = CyclicLR(0.0, 1.0, step_size=4, mode="triangular2")
        assert s(8 * cycle + 4) == pytest.approx(peak)
        assert s(8 * cycle) == pytest.approx(0.0)

    @pytest.mark.parametrize("step_size", [1, 3, 10])
    def test_triangular_is_periodic(self, step_size):
        s = CyclicLR(1e-4, 1e-3, step_size=step_size)
        for t in range(4 * step_size):
            assert s(t) == pytest.approx(s(t + 2 * step_size))

    def test_flat_when_base_equals_max(self):
        s = CyclicLR(3e-4, 3e-4, step_size=5)
        assert {s(t) for t in range(20)} == {3e-4}


class TestLinearScalingTable:
    """Section IV-B's initial rate, 1e-4 x #GPUs, for every GPU count
    the paper runs."""

    @pytest.mark.parametrize("gpus", [1, 2, 4, 8, 12, 16, 32])
    def test_rate_scales_with_gpus(self, gpus):
        assert linear_scaling_rule(1e-4, gpus) == pytest.approx(1e-4 * gpus)
