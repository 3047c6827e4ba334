"""Correctly rounded summation used by every accumulation in the package.

All Riemann sums, audits and masses reduce their terms through `math.fsum`
(Shewchuk's exact summation), so a total is the correctly rounded sum of
its terms and does not depend on their order.
"""

from __future__ import annotations

import math
from typing import Iterable


def compensated_sum(terms: Iterable[float]) -> float:
    """``math.fsum`` of the terms; nan where it overflows or is not finite."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def exact_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum; used where additivity must hold to the last bit."""
    return math.fsum(terms)
