"""Exception types shared across the package.

Every failure mode that certification code wants to react to gets its own
class; anything else is allowed to surface as a plain ValueError.  CauchyFail
carries the diagnostics needed to report divergence evidence instead of
pretending a value was certified.
"""

from __future__ import annotations


class GaugeIntError(Exception):
    """Base class for all package errors."""


class InvalidGauge(GaugeIntError):
    """Gauge returned a negative value, or 0 away from its declared zero set."""


class DepthExceeded(GaugeIntError):
    """Bisection hit the depth or node budget before the gauge admitted a tag."""


class ContinuityBudgetFail(GaugeIntError):
    """No interval around a gauge-zero point meets its charge budget."""


class CauchyFail(GaugeIntError):
    """Two independently constructed sums disagree beyond the requested eps.

    Attributes:
        sum1, sum2: the two Riemann sums.
        gap: |sum1 - sum2|.
        partial_sums: (tau, sum) rows, one per construction, collected
            across a tau schedule; used to report divergence diagnostics.
    """

    def __init__(self, sum1, sum2, eps, partial_sums=None, detail=""):
        self.sum1 = float(sum1)
        self.sum2 = float(sum2)
        self.gap = abs(self.sum1 - self.sum2)
        self.eps = float(eps)
        self.partial_sums = list(partial_sums or [])
        msg = f"sums {self.sum1!r} and {self.sum2!r} differ by {self.gap:.3e} >= eps {self.eps:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UndefinedTag(GaugeIntError):
    """A user function raised or was not finite where a sum needs its value."""


class SearchFail(GaugeIntError):
    """Radius search found no admissible radius above the floor."""


class AuditFail(GaugeIntError):
    """A proof gauge's own primitive fails its Saks-Henstock audit: on a
    covered family the audit reached eps/2."""


class SpecOutOfRange(GaugeIntError):
    """A restriction selector referenced material not present in the chain."""


class UndefinedAtAtom(GaugeIntError):
    """Boundary pairing hit a point where the test function is undefined."""


class PointOffSupport(GaugeIntError):
    """Queried point is clearly off the support of the chain."""


class NoPieces(GaugeIntError):
    """No admissible piece through the point at the largest requested scale."""


class TailBudgetFail(GaugeIntError):
    """No finite component prefix leaves a tail below the charge budget."""


class MonotonicityViolation(GaugeIntError):
    """Sequence failed the sampled pointwise or integral monotonicity check."""


class QuadratureUnstable(GaugeIntError):
    """Refinement did not stabilize; carries the observed partial values."""

    def __init__(self, values, detail=""):
        self.values = [float(v) for v in values]
        msg = "refinement did not stabilize"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ExceptionalTagEncountered(GaugeIntError):
    """A tag landed in the exceptional set where the gauge is not zero."""


class TraitViolation(GaugeIntError):
    """A declared charge trait failed its randomized construction check."""
