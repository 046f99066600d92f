"""Initializer tests, including the paper's truncated normal."""

import numpy as np
import pytest

from repro.nn import TruncatedNormal, get_initializer
from repro.nn.initializers import Zeros

rng = np.random.default_rng(11)


class TestTruncatedNormal:
    def test_all_samples_within_two_sigma(self):
        init = TruncatedNormal(mean=0.0, stddev=0.05)
        w = init((50, 50), rng)
        assert np.abs(w).max() <= 0.1 + 1e-12

    def test_mean_approximately_centred(self):
        init = TruncatedNormal(mean=1.0, stddev=0.1)
        w = init((200, 200), rng)
        assert abs(w.mean() - 1.0) < 0.01
        assert w.min() >= 0.8 and w.max() <= 1.2

    def test_deterministic_with_seed(self):
        init = TruncatedNormal()
        a = init((10,), np.random.default_rng(1))
        b = init((10,), np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_initializer("truncated_normal"), TruncatedNormal)
        assert isinstance(get_initializer("zeros"), Zeros)

    def test_passthrough(self):
        inst = TruncatedNormal(stddev=0.3)
        assert get_initializer(inst) is inst

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            get_initializer("orthogonal")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            get_initializer(42)


class TestDtypePolicy:
    """Initializers honour the compute-dtype policy (ISSUE 5)."""

    def test_default_dtype_is_float64(self):
        for init in (Zeros(), TruncatedNormal()):
            assert init((4, 4), rng).dtype == np.float64

    def test_explicit_float32(self):
        for init in (Zeros(dtype="float32"),
                     TruncatedNormal(dtype="float32")):
            assert init((4, 4), rng).dtype == np.float32

    def test_dtype_none_follows_policy_at_call_time(self):
        from repro.nn import use_compute_dtype

        init = TruncatedNormal()  # dtype=None defers to the policy
        with use_compute_dtype("float32"):
            assert init((8,), rng).dtype == np.float32
        assert init((8,), rng).dtype == np.float64
        # an explicit dtype is pinned and ignores the policy
        with use_compute_dtype("float32"):
            assert TruncatedNormal(dtype="float64")((8,), rng).dtype \
                == np.float64

    def test_float32_draw_is_downcast_of_float64_draw(self):
        """Random inits draw in float64 then downcast, so the float32
        stream is the bit-exact downcast of the float64 one."""
        a = TruncatedNormal()((32,), np.random.default_rng(9))
        b = TruncatedNormal(dtype="float32")((32,), np.random.default_rng(9))
        np.testing.assert_array_equal(b, a.astype(np.float32))

    def test_get_initializer_forwards_dtype_for_string_specs(self):
        init = get_initializer("truncated_normal", dtype="float32")
        assert init((4, 4), rng).dtype == np.float32
        # instance passthrough keeps the instance's own dtype
        inst = TruncatedNormal(dtype="float32")
        assert get_initializer(inst, dtype="float64") is inst


class TestTruncationAcrossSettings:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mean, stddev", [(0.0, 0.05), (0.5, 1.0),
                                              (-2.0, 0.01)])
    def test_within_two_sigma_in_requested_dtype(self, mean, stddev, dtype):
        w = TruncatedNormal(mean, stddev, dtype=dtype)(
            (64, 64), np.random.default_rng(5))
        assert w.dtype == np.dtype(dtype)
        tol = 1e-6 * max(1.0, abs(mean))
        assert w.min() >= mean - 2 * stddev - tol
        assert w.max() <= mean + 2 * stddev + tol
