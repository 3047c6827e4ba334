"""Compensated summation used by every accumulation in the package.

All Riemann sums, audits and masses reduce their terms through
`compensated_sum`, in index order, so a total depends only on the terms and
their order.
"""

from __future__ import annotations

import math
from typing import Iterable


def compensated_sum(terms: Iterable[float]) -> float:
    """Neumaier variant of Kahan summation, fixed index order."""
    total = 0.0
    carry = 0.0
    for t in terms:
        t = float(t)
        s = total + t
        if abs(total) >= abs(t):
            carry += (total - s) + t
        else:
            carry += (t - s) + total
        total = s
    return total + carry


def exact_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum; used where additivity must hold to the last bit."""
    return math.fsum(terms)
