"""Cross-validation: simulated synchronous steps vs the analytic
straggler model.

The Table I reproduction leans on ``expected_max_factor`` (the analytic
E[max of n] inflation).  Here the same physics is *executed*: n replicas
draw lognormal per-step compute times and meet at a barrier, so each
step lasts as long as its slowest replica, and the realised mean step
time must match the analytic prediction.
"""

import numpy as np
import pytest

from repro.perf import expected_max_factor


def simulate_sync_steps(num_replicas: int, num_steps: int, sigma: float,
                        base: float = 1.0, seed: int = 0) -> float:
    """Mean barrier-to-barrier step time over a simulated run."""
    rng = np.random.default_rng(seed)
    mean_correction = np.exp(0.5 * sigma**2)
    step_times: list[float] = []
    for _ in range(num_steps):
        draws = rng.lognormal(0.0, sigma, size=num_replicas)
        draws = draws / mean_correction * base  # unit-mean jitter
        step_times.append(float(draws.max()))  # the synchronisation barrier
    return float(np.mean(step_times))


class TestBarrierValidation:
    @pytest.mark.parametrize("n", [2, 4, 8, 32])
    def test_simulated_matches_analytic(self, n):
        sigma = 0.25
        sim_mean = simulate_sync_steps(n, num_steps=3000, sigma=sigma, seed=1)
        analytic = expected_max_factor(n, sigma)
        assert sim_mean == pytest.approx(analytic, rel=0.02), n

    def test_no_jitter_no_inflation(self):
        assert simulate_sync_steps(8, 50, sigma=0.0) == pytest.approx(1.0)

    def test_single_replica_no_barrier_cost(self):
        sigma = 0.3
        mean = simulate_sync_steps(1, 5000, sigma=sigma, seed=2)
        assert mean == pytest.approx(1.0, rel=0.02)

    def test_inflation_grows_with_replicas(self):
        means = [
            simulate_sync_steps(n, 1500, sigma=0.2, seed=3)
            for n in (2, 8, 32)
        ]
        assert means[0] < means[1] < means[2]

    def test_barrier_waits_are_real_idle_time(self):
        """Total replica compute < total barrier-synchronised time:
        the difference is the straggler wait Table I's dp column pays."""
        n, steps, sigma = 8, 500, 0.3
        rng = np.random.default_rng(4)
        correction = np.exp(0.5 * sigma**2)
        draws = rng.lognormal(0.0, sigma, size=(steps, n)) / correction
        synchronised = draws.max(axis=1).sum()
        per_replica_mean = draws.mean()
        assert synchronised > steps * per_replica_mean * 1.2
