"""The float32 bound for claim C2's sharding asserts.

Sharding a batch over replicas changes no operation, only the order of
the sums that form each gradient (per-shard partial sums, then the
all-reduce) and each loss.  At float64 the reordering stays inside each
test's own bound, which stays as it is.  At float32 a reordered sum may
round to a neighbouring float: a relative difference of at most
``eps32 = 2**-23``.  The update that difference perturbs is far below
one ulp of the parameter it is added to, so one optimizer step can at
most round a parameter to an adjacent float32, and
``ulp(x) <= eps32 * |x|``.  After ``steps`` steps the sharded and the
full-batch run therefore agree to within ``steps * eps32 * max|x|``;
the losses and Dice scores computed from those parameters are held to
the same relative bound.
"""

import numpy as np

EPS32 = float(np.finfo(np.float32).eps)


def sharding_atol(dtype: str, float64_atol: float, steps: int,
                  *values) -> float:
    """``float64_atol`` at float64; ``steps`` float32 ulps of the
    largest ``|value|`` at float32."""
    if dtype == "float64":
        return float64_atol
    return steps * EPS32 * max(float(np.max(np.abs(v))) for v in values)
