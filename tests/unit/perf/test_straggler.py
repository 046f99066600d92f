"""Straggler order-statistics tests."""

import numpy as np
import pytest

from repro.perf import expected_max_factor, sample_max_factor


class TestExpectedMax:
    def test_identity_cases(self):
        assert expected_max_factor(1, 0.3) == 1.0
        assert expected_max_factor(8, 0.0) == 1.0

    def test_monotone_in_n(self):
        vals = [expected_max_factor(n, 0.2) for n in (2, 4, 8, 16, 32)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_sigma(self):
        vals = [expected_max_factor(8, s) for s in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(0)
        n, sigma = 8, 0.25
        draws = rng.lognormal(0.0, sigma, size=(200_000, n))
        mc = draws.max(axis=1).mean() / np.exp(0.5 * sigma**2)
        assert expected_max_factor(n, sigma) == pytest.approx(mc, rel=5e-3)

    def test_known_two_replica_value(self):
        """E[max of 2 N(0,1)] = 1/sqrt(pi); for small sigma the factor is
        ~ 1 + sigma/sqrt(pi)."""
        sigma = 0.01
        approx = 1 + sigma / np.sqrt(np.pi)
        assert expected_max_factor(2, sigma) == pytest.approx(approx, abs=1e-4)

    def test_matches_scipy_normal_quadrature(self):
        """The NumPy pdf/cdf give the factor SciPy's ``norm`` gives, on
        the same grid, to rounding."""
        pytest.importorskip("scipy")
        from scipy.stats import norm

        z = np.linspace(-9.0, 9.0, 4001)
        pdf, cdf = norm.pdf(z), norm.cdf(z)
        sigmas = np.linspace(0.05, 0.5, 10)
        growth = np.exp(np.outer(sigmas, z))
        for n in range(2, 129):
            pdf_max = n * pdf * cdf ** (n - 1)
            want = (np.trapezoid(growth * pdf_max, z, axis=1)
                    / np.exp(0.5 * sigmas**2))
            got = [expected_max_factor(n, float(s)) for s in sigmas]
            assert got == pytest.approx(want, rel=1e-14), n

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_max_factor(0, 0.1)
        with pytest.raises(ValueError):
            expected_max_factor(2, -0.1)


class TestSampleMax:
    def test_deterministic_cases(self):
        rng = np.random.default_rng(0)
        assert sample_max_factor(1, 0.5, rng) == 1.0
        assert sample_max_factor(4, 0.0, rng) == 1.0

    def test_converges_to_expectation(self):
        rng = np.random.default_rng(1)
        got = sample_max_factor(4, 0.2, rng, num_steps=100_000)
        assert got == pytest.approx(expected_max_factor(4, 0.2), rel=1e-2)
