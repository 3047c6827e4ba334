"""Correctly rounded summation used by every accumulation in the package.

All Riemann sums, audits and masses reduce their terms to the correctly
rounded value of their exact sum, so a total does not depend on the order
of its terms.  Lists, generators and short arrays go through `math.fsum`
(Shewchuk's exact summation).  A 1-d float64 array of at least
``_KERNEL_MIN`` terms goes through `_bucket_sum`, which splits each term
into two halves of at most 27 significant bits and adds the halves
exactly in one float64 bucket per binary exponent (`np.bincount`).  The
buckets then hold the exact total, so their `math.fsum` is the correctly
rounded exact total: bit for bit what `math.fsum` returns on the terms,
at array speed.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

# below this many terms the kernel's fixed cost (the scan of 4096 buckets,
# the fsum of the nonzero ones) can exceed math.fsum's, on terms spread
# over many exponents
_KERNEL_MIN = 512
# terms per bincount pass: the temporaries (128 KB each) never grow with n
# and stay in cache
_CHUNK = 1 << 14
# a bucket adds up to 2**26 parts below 2**27 units each, exactly: < 2**53
_MAX_TERMS = 1 << 26
# clears the low 26 of the 52 significand bits
_HI_MASK = np.int64(~((1 << 26) - 1))
# buckets up to this biased exponent cannot overflow (below 2**1004);
# above it are inf, nan and terms near overflow, left to math.fsum
_MAX_EXPONENT = 2000


def _bucket_sum(x: np.ndarray) -> Optional[float]:
    """Correctly rounded sum of a 1-d float64 array, or None where the
    kernel does not apply (a term above ``_MAX_EXPONENT``) or the total is
    0.0, whose sign ``math.fsum`` decides.

    Each term splits exactly into ``hi`` (its top 27 significand bits) and
    ``lo = x - hi`` (the other 26).  Within one biased exponent every
    ``hi`` is an integer below 2**27 times one power of two, and every
    ``lo`` one below 2**26 times another, so up to ``_MAX_TERMS`` of them
    add exactly in float64, in any order."""
    acc = np.zeros((2, 2048))
    for i in range(0, x.shape[0], _CHUNK):
        part = x[i:i + _CHUNK]
        bits = part.view(np.int64)
        ex = (bits >> 52) & 0x7FF
        if ex.max() > _MAX_EXPONENT:
            return None
        hi = (bits & _HI_MASK).view(np.float64)
        acc[0] += np.bincount(ex, weights=hi, minlength=2048)
        acc[1] += np.bincount(ex, weights=part - hi, minlength=2048)
    total = math.fsum(acc[acc != 0.0].tolist())
    return total if total != 0.0 else None


def _fsum(terms) -> float:
    """``math.fsum(terms)``, through ``_bucket_sum`` where it applies."""
    if (isinstance(terms, np.ndarray) and terms.dtype == np.float64
            and terms.ndim == 1
            and _KERNEL_MIN <= terms.shape[0] <= _MAX_TERMS):
        total = _bucket_sum(terms)
        if total is not None:
            return total
    return math.fsum(terms)


def compensated_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum of the terms; nan where ``math.fsum`` overflows
    or is not finite."""
    try:
        total = _fsum(terms)
    except (OverflowError, ValueError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def exact_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum; used where additivity must hold to the last bit.

    Equal to ``math.fsum(terms)``, bit for bit, exceptions included."""
    return _fsum(terms)
