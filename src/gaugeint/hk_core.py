"""Gauge integration on compact intervals.

The objects here are deliberately constructive.  A Gauge is a nonnegative
width function with an explicit (finite) zero set; Cousin bisection turns a
positive gauge into a fine tagged partition; the Howard-Cousin builder turns
a gauge that vanishes on finitely many points into a fine tagged family plus
a remainder whose charge value is under budget.  Certification never trusts
a single construction: every integral is the agreement of two partitions
built from independent deterministic seeds, and one front end
(``_certify``) runs that two-seed test for intervals, full families and
chains alike: it opens the seed stores, builds and sums the constructions,
audits those built on a proof gauge of a known primitive (``ftc_gauge``)
against that primitive, and returns the certificate.

Numerical conventions (fixed so runs are reproducible):
  * every accumulation is a correctly rounded sum (``sums``), so its
    total does not depend on the order of the terms; a large float64
    array is summed exactly per binary exponent and the bucket totals
    are fsummed, which is ``math.fsum``'s value bit for bit,
  * Riemann sums, audits and probes evaluate integrands and primitives
    through one helper, ``_eval_points``: one call on the array of points
    where the function accepts arrays, else one call per point,
  * a gauge is one callable, evaluated through the same helper, so one
    written for a float and its array form build the same family,
  * a construction makes one ``cousin_partition`` call, on the list of
    segments between its carves, and bisection runs level by level over
    all of them at once: each candidate column of one depth is one
    ``Gauge.eval_many`` call for the whole host,
  * bisection tag candidates tried left endpoint, midpoint, right endpoint
    for the primary seed and in reversed order for the certification seed,
  * dyadic radius searches from the host length down to 1e-12 times the
    host length; ``ftc_gauge``'s search checks its inequality on the pair
    x +- r alone, and the Saks-Henstock audit ``_certify`` runs on every
    covered family such a gauge builds is what the certificate rests on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AuditFail,
    CauchyFail,
    ContinuityBudgetFail,
    DepthExceeded,
    GaugeIntError,
    InvalidGauge,
    SearchFail,
    UndefinedTag,
)
from .sums import compensated_sum, exact_sum

__all__ = [
    "Gauge",
    "TaggedFamily1D",
    "FamilyConstruction",
    "Certificate",
    "HKResult",
    "cousin_partition",
    "howard_cousin_family",
    "riemann_sum",
    "hk_integrate",
    "ftc_gauge",
    "saks_henstock_audit",
    "ac_star_probe",
    "pointwise_lip",
    "uniform_schedule",
    "ftc_schedule",
    "proportional_schedule",
    "as_schedule",
    "Schedule",
    "PrimitiveControl",
]

# Dyadic radius searches stop at host_length * 2**-_RADIUS_FLOOR_EXP, the
# last dyadic radius above 1e-12 times the host length.
_RADIUS_FLOOR_EXP = 39


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class Gauge:
    """Nonnegative width function on a host interval.

    ``fn`` is the one evaluator.  ``eval_many`` and a call on one point
    evaluate it through ``_eval_points``: one call on the array of points
    where fn gives one value per point, else one call per point.  Where a
    point call raises, InvalidGauge names the gauge and the point, chained
    from the cause; a GaugeIntError raised by fn passes through as it is.
    ``zero_set`` lists the only points where the gauge may evaluate to 0;
    this is checked on every evaluation.
    """

    a: float
    b: float
    fn: Callable
    zero_set: tuple = ()
    name: str = "gauge"
    # Carves around interior zero-set points keep this distance from the
    # point; gauges whose evaluator has a resolution floor (radius
    # searches) set it so no carve edge lands where evaluation is impossible.
    min_clearance: float = 0.0
    # (F, F') of a gauge made by ftc_gauge, None for any other; not a field,
    # so no constructor takes it.  ``_certify`` audits the pair on every
    # covered family the gauge builds.
    _ftc_pair = None

    def __post_init__(self):
        if not (self.a < self.b):
            raise InvalidGauge(f"empty host [{self.a}, {self.b}]")
        for y in self.zero_set:
            if not (self.a <= y <= self.b):
                raise InvalidGauge(f"zero-set point {y!r} outside host")

    @property
    def host(self) -> tuple:
        return (self.a, self.b)

    def __call__(self, x: float) -> float:
        return float(self._values(np.array([float(x)]))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return self._values(np.asarray(xs, dtype=float))

    def _check_value(self, x: float, v: float) -> None:
        # x and v print as plain floats, whether numpy scalars or not
        if not math.isfinite(v) or v < 0.0:
            raise InvalidGauge(f"{self.name}({float(x)!r}) = {float(v)!r}")
        if v == 0.0 and x not in self.zero_set:
            raise InvalidGauge(f"{self.name} vanishes at undeclared point {float(x)!r}")

    def _raised(self, x) -> InvalidGauge:
        return InvalidGauge(f"{self.name}({float(x)!r}) raised")

    def _values(self, xs: np.ndarray) -> np.ndarray:
        # shared by __call__ and eval_many, so that a call on one point is
        # not also an eval_many call to whoever wraps the public methods
        vs = _eval_points(self.fn, xs, self._raised)
        if not np.all(np.isfinite(vs)) or np.any(vs < 0.0):
            bad = int(np.argmax(~np.isfinite(vs) | (vs < 0.0)))
            self._check_value(xs[bad], vs[bad])
        if np.any(vs == 0.0):
            zero_ok = np.isin(xs[vs == 0.0], np.array(self.zero_set, dtype=float))
            if not zero_ok.all():
                self._check_value(xs[vs == 0.0][~zero_ok][0], 0.0)
        return vs

    @staticmethod
    def uniform(a: float, b: float, h: float) -> "Gauge":
        if not (h > 0.0):
            raise InvalidGauge(f"uniform width {h!r} must be positive")
        return Gauge(a, b, lambda xs: np.full(np.shape(xs), float(h)),
                     name=f"uniform[h={h!r}]")

    @staticmethod
    def proportional(a: float, b: float, anchor: float, rate: float,
                     cap: Optional[float] = None) -> "Gauge":
        """delta(x) = min(cap, rate * |x - anchor|); vanishes exactly at the anchor."""
        if not (rate > 0.0):
            raise InvalidGauge(f"rate {rate!r} must be positive")
        top = float(cap) if cap is not None else (b - a)
        zs = (anchor,) if a <= anchor <= b else ()

        def fn(xs):
            return np.minimum(top, rate * np.abs(np.asarray(xs, float) - anchor))

        return Gauge(a, b, fn, zs, name=f"proportional[rate={rate!r}]")


# ---------------------------------------------------------------------------
# tagged families


class TaggedFamily1D:
    """Finite list of non-overlapping tagged intervals inside a host.

    Stored as three parallel arrays (lefts, rights, tags) sorted by left
    endpoint, sorted here unless they come in sorted.  A partition is a
    family whose body is the whole host, checked by exact float equality:
    bisection shares split points exactly, so no tolerance is needed.
    """

    __slots__ = ("host", "lefts", "rights", "tags")

    def __init__(self, host: tuple, lefts, rights, tags, *, validate: bool = True):
        self.host = (float(host[0]), float(host[1]))
        self.lefts = np.asarray(lefts, dtype=float)
        self.rights = np.asarray(rights, dtype=float)
        self.tags = np.asarray(tags, dtype=float)
        if self.lefts.ndim != 1 or not (
                self.lefts.shape == self.rights.shape == self.tags.shape):
            raise ValueError("lefts/rights/tags must be equal-length 1-d arrays")
        if not np.all(self.lefts[:-1] <= self.lefts[1:]):
            order = np.argsort(self.lefts, kind="stable")
            self.lefts = self.lefts[order]
            self.rights = self.rights[order]
            self.tags = self.tags[order]
        if validate:
            self._validate()

    def _validate(self) -> None:
        a, b = self.host
        if self.n == 0:
            return
        if not np.all(self.lefts < self.rights):
            raise ValueError("degenerate interval in family")
        if self.lefts[0] < a or self.rights[-1] > b:
            raise ValueError("family exceeds host")
        if self.n > 1 and not np.all(self.rights[:-1] <= self.lefts[1:]):
            raise ValueError("overlapping intervals in family")
        if not (np.all(self.lefts <= self.tags) and np.all(self.tags <= self.rights)):
            raise ValueError("tag outside its own interval")

    @property
    def n(self) -> int:
        return int(self.lefts.shape[0])

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        for i in range(self.n):
            yield (float(self.lefts[i]), float(self.rights[i]), float(self.tags[i]))

    @property
    def widths(self) -> np.ndarray:
        return self.rights - self.lefts

    @property
    def is_partition(self) -> bool:
        a, b = self.host
        if self.n == 0:
            return False
        return (self.lefts[0] == a and self.rights[-1] == b
                and bool(np.all(self.rights[:-1] == self.lefts[1:])))

    def is_fine(self, gauge: Gauge) -> bool:
        if self.n == 0:
            return True
        deltas = gauge.eval_many(self.tags)
        return bool(np.all(self.widths < deltas))

    def merged(self, *others: "TaggedFamily1D") -> "TaggedFamily1D":
        """This family and the others as one family on this host."""
        fams = (self,) + others
        return TaggedFamily1D(self.host, *(
            np.concatenate([getattr(fam, k) for fam in fams])
            for k in ("lefts", "rights", "tags")))


# ---------------------------------------------------------------------------
# Cousin bisection

_TAG_ORDERS = ("left", "right")
_ZERO_ORDERS = ("declared", "reversed")


# The seed store open in this context, or None outside one; see
# ``_shared_seeds``.
_SEED_STORE: ContextVar = ContextVar("gaugeint_seed_store", default=None)


@contextmanager
def _shared_seeds():
    """Open a seed store for the duration of the block.

    ``_certify`` opens one around the two seeds' builds at the smallest
    tau, and one of its own around each larger tau's left build.  Inside
    it a left-first ``cousin_partition`` pass also works out the
    right-first tags on its mesh and leaves one entry per segment, (gauge,
    lefts, rights, right tags) keyed by the gauge object, the segment and
    the budgets; a right-first call takes out every segment it finds there
    instead of bisecting it again.  The store also keeps each carve
    ``_carve_intervals`` makes, so a seed asking for the same carve around
    a zero point (every host with one zero) takes it instead of searching
    again.  Nothing outlives the block.
    """
    token = _SEED_STORE.set({})
    try:
        yield
    finally:
        _SEED_STORE.reset(token)


def _segment_list(host) -> list:
    """``cousin_partition``'s host as a list of (a, b): the pair itself, or
    the segments of a list, which must be nonempty, each with a < b, sorted
    and disjoint (ValueError otherwise)."""
    if np.ndim(host) == 1 and len(host) == 2:
        return [(float(host[0]), float(host[1]))]
    segs = [(float(a), float(b)) for a, b in host]
    ends = [x for seg in segs for x in seg]
    if not segs or not all(a < b for a, b in segs) \
            or not all(x <= y for x, y in zip(ends, ends[1:])):
        raise ValueError("segments must be a nonempty sorted list of "
                         f"disjoint (a, b) with a < b, not {segs!r}")
    return segs


def cousin_partition(host, gauge: Gauge, *, tag_order: str = "left",
                     max_depth: int = 64, max_nodes: int = 4_000_000) -> TaggedFamily1D:
    """Fine tagged partition of the host by repeated bisection.

    Each subinterval is kept once some candidate tag x in it satisfies
    width < gauge(x); candidates are the left endpoint, midpoint and right
    endpoint (reversed for tag_order="right"), first hit wins.  Requires a
    positive gauge: a declared zero set means no partition can be fine and
    the caller should be using howard_cousin_family instead.

    The host is (a, b), or a sorted list of disjoint segments (a, b):
    ``howard_cousin_family`` passes the segments between its carves.  All
    segments are bisected in one pass (``_cousin_vector``), so one depth is
    one gauge batch per candidate column however many segments there are,
    and the result is their families as one family, on the host from the
    first segment's left end to the last one's right end.  The budgets
    count per segment, and the error raised is the leftmost failing
    segment's; where the gauge itself fails (``InvalidGauge`` and the
    like), each segment is bisected alone, in order, so the error is the
    one a loop over the segments raises.

    Inside a seed store (``_certify`` opens one around the two seeds'
    builds, and the CLI ``partition`` command around its own) the two
    seeds share each bisection pass: which intervals fit does not depend
    on the candidate order, so a left-first pass also picks the
    right-first tags on the same mesh and leaves them in the store, one
    entry per segment.  A right-first call on the same gauge object and
    budgets takes the segments it finds there, bit for bit the families it
    would have built, and bisects the rest in one right-only pass.  The
    store only assumes that, within one pass, the gauge gives a point the
    same value whatever batch it comes in; a segment the seeds carve
    differently is bisected by each seed on its own.  The same store holds
    the carves (see ``howard_cousin_family``).  Outside a seed store every
    pass evaluates only the points its own order needs.
    """
    if tag_order not in _TAG_ORDERS:
        raise ValueError(f"tag order must be one of {_TAG_ORDERS}")
    segs = _segment_list(host)
    for a, b in segs:
        if any(a < y < b for y in gauge.zero_set):
            raise InvalidGauge("gauge vanishes inside the host; use howard_cousin_family")
        if not (gauge.a <= a < b <= gauge.b):
            raise InvalidGauge(f"host [{a}, {b}] not inside gauge host {gauge.host}")
    store = _SEED_STORE.get()

    # an entry holds the gauge, so its id is not reused while the key lives
    def key(seg):
        return (id(gauge), seg[0], seg[1], max_depth, max_nodes)

    parts = {}
    if store is not None and tag_order == "right":
        parts = {seg: store.pop(key(seg))[1:] for seg in segs
                 if key(seg) in store}
    rest = [seg for seg in segs if seg not in parts]
    if rest:
        orders = ("left", "right") if store is not None \
            and tag_order == "left" else (tag_order,)
        for seg, (lefts, rights, tags) in zip(
                rest, _bisect(rest, gauge, orders, max_depth, max_nodes)):
            parts[seg] = (lefts, rights, tags[0])
            if len(orders) == 2:
                store[key(seg)] = (gauge, lefts, rights, tags[1])
    # one segment's arrays are taken as they are, shared with its entry
    arrays = (x[0] if len(segs) == 1 else np.concatenate(x)
              for x in zip(*(parts[seg] for seg in segs)))
    return TaggedFamily1D((segs[0][0], segs[-1][1]), *arrays)


def _bisect(segs, gauge, orders, max_depth, max_nodes) -> list:
    """(lefts, rights, tags per order) of each segment, bisected in one
    pass; raises the leftmost failing segment's error.  A GaugeIntError in
    a pass over several segments sends each back alone, in order, so the
    error is the one a loop over them raises."""
    A, B = (np.array(ends) for ends in zip(*segs))
    # the level arrays are freed when _cousin_vector returns, before the
    # families are assembled
    try:
        done, error = _cousin_vector(A, B, gauge, orders, max_depth, max_nodes)
    except GaugeIntError:
        if len(segs) == 1:
            raise
        return [part for seg in segs
                for part in _bisect([seg], gauge, orders, max_depth, max_nodes)]
    if error is not None:
        raise error
    if not done[0]:
        raise DepthExceeded(f"{gauge.name}: bisection produced no intervals")
    return _families(A, *done)


def _fill(gauge, vals, xs, mask) -> None:
    """Write the gauge at ``xs[mask]`` into ``vals[mask]``: one batch call."""
    if mask.any():
        vals[mask] = gauge.eval_many(xs[mask])


def _interleave(first, second) -> np.ndarray:
    """``first[0], second[0], first[1], second[1], ...`` in one array."""
    out = np.empty(2 * first.shape[0])
    out[0::2] = first
    out[1::2] = second
    return out


def _segment_of(A, x) -> int:
    """Index of the segment, of those starting at the sorted ``A``, holding x."""
    return int(np.searchsorted(A, x, side="right")) - 1


def _cousin_vector(A, B, gauge, orders, max_depth, max_nodes):
    """Bisection of the disjoint segments [A[i], B[i]], sorted by A, one
    numpy pass per depth, for each tag order in ``orders``.

    The frontier holds every open interval of every segment, in order, so
    each candidate column of one depth is one gauge batch for all of them.
    ``gC``, ``gM`` and ``gD`` hold the gauge at each interval's left end,
    midpoint and right end, nan until evaluated (nan never fits).  An order
    tries its near end first (C for "left", D for "right"), then the
    midpoint where the near end does not fit, then its far end where
    neither does.  A child inherits its ends' values from its open parent,
    which evaluated all three, so below the roots only midpoints are
    evaluated.  Whether an interval fits does not depend on the order, so
    every order sees the same mesh and only the tags differ; with both
    orders a midpoint is evaluated once, wherever either order needs it.
    Children sit side by side, so each depth runs left to right.

    Each segment has its own node budget; the frontier and each depth's
    fitted block are sorted, so ``searchsorted`` counts each segment's
    nodes, once all of them together are over it.  A segment that fails
    (node budget, depth, float resolution) leaves the frontier together
    with every segment right of it, so the error kept is the leftmost
    failing segment's, the one a loop over the segments would meet first,
    and the segments left of it finish.  Returns the fitted intervals (a
    list of lefts and of rights arrays per depth and, per order, a list of
    tag arrays per depth) and that error, or None.
    """
    left, right = "left" in orders, "right" in orders
    done_l, done_r = [], []
    done_t = tuple([] for _ in orders)
    C = A.copy()
    D = B.copy()
    gC = np.full(C.shape, np.nan)
    gD = np.full(C.shape, np.nan)
    # segments k, k + 1, ... are given up, segment k for ``error``
    k, error = A.shape[0], None
    total = 0
    for depth in range(max_depth + 1):
        n = C.shape[0]
        if n == 0:
            break
        total += n
        # no segment can be over its budget while all of them together
        # are not; a segment's tree so far is a full binary tree whose
        # leaves are its fitted and its open intervals, so it has visited
        # twice as many nodes as those, less one
        over = () if total <= max_nodes else np.flatnonzero(2 * sum(
            np.searchsorted(X, B[:k]) - np.searchsorted(X, A[:k])
            for X in done_l + [C]) - 1 > max_nodes)
        if len(over):
            k = int(over[0])
            error = DepthExceeded(f"{gauge.name}: node budget {max_nodes} "
                                  f"exhausted at depth {depth}")
            n = int(np.searchsorted(C, A[k]))
            if n == 0:
                break
            C, D, gC, gD = C[:n], D[:n], gC[:n], gD[:n]
        W = D - C
        M = 0.5 * (C + D)
        gM = np.full(n, np.nan)
        if left:
            _fill(gauge, gC, C, np.isnan(gC))
        if right:
            _fill(gauge, gD, D, np.isnan(gD))
        fitC, fitD = W < gC, W < gD
        need_mid = np.zeros(n, dtype=bool)
        if left:
            need_mid |= ~fitC
        if right:
            need_mid |= ~fitD
        _fill(gauge, gM, M, need_mid)
        fitM = W < gM
        if left:
            _fill(gauge, gD, D, ~(fitC | fitM) & np.isnan(gD))
        if right:
            _fill(gauge, gC, C, ~(fitD | fitM) & np.isnan(gC))
        fitC, fitD = W < gC, W < gD
        fitted = fitC | fitM | fitD
        open_mask = ~fitted
        if fitted.any():
            done_l.append(C[fitted])
            done_r.append(D[fitted])
            for order, tags in zip(orders, done_t):
                if order == "left":
                    tag = np.where(fitC, C, np.where(fitM, M, D))
                else:
                    tag = np.where(fitD, D, np.where(fitM, M, C))
                tags.append(tag[fitted])
        if not open_mask.any():
            break
        if depth == max_depth:
            c0 = float(C[open_mask][0])
            k = _segment_of(A, c0)
            error = DepthExceeded(f"{gauge.name}: max depth {max_depth} "
                                  f"reached near {c0!r}")
            break
        Cr, Dr, Mr = C[open_mask], D[open_mask], M[open_mask]
        if not np.all((Cr < Mr) & (Mr < Dr)):
            bad = int(np.argmin((Cr < Mr) & (Mr < Dr)))
            k = _segment_of(A, Cr[bad])
            error = DepthExceeded(f"{gauge.name}: float resolution exhausted "
                                  "during bisection")
            open_mask[int(np.searchsorted(C, A[k])):] = False
            Cr, Dr, Mr = C[open_mask], D[open_mask], M[open_mask]
        # children side by side: C[2i], C[2i+1] are the halves of Cr[i]
        gMr = gM[open_mask]
        C, D = _interleave(Cr, Mr), _interleave(Mr, Dr)
        gC = _interleave(gC[open_mask], gMr)
        gD = _interleave(gMr, gD[open_mask])
    return (done_l, done_r, done_t), error


def _families(A, done_l, done_r, done_t) -> list:
    """(lefts, rights, tags per order) of each segment of a bisection pass
    that built them all, from its fitted intervals per depth.  One sort for
    every array (each depth's block is already sorted)."""
    lefts = np.concatenate(done_l)
    order = np.argsort(lefts, kind="stable")
    lefts, rights = lefts[order], np.concatenate(done_r)[order]
    tags = [np.concatenate(t)[order] for t in done_t]
    starts = np.searchsorted(lefts, A).tolist() + [lefts.shape[0]]
    return [(lefts[s:e], rights[s:e], tuple(t[s:e] for t in tags))
            for s, e in zip(starts, starts[1:])]


# ---------------------------------------------------------------------------
# carving around gauge zeros


def _eval_points(f, P, fail=None) -> np.ndarray:
    """f at each point of P (the rows of a 2-d P, the entries of a 1-d P).

    One batch call f(P) when it returns shape (n,); otherwise, or when the
    batch call raises, float(f(p)) point by point.  A square 2-d P (as many
    points as coordinates) goes point by point first: there a per-point f
    that indexes p[0], p[1], ... also returns shape (n,) on the batch, with
    the rows mixed, so the batch call is made only if a point call raises.
    A GaugeIntError from any call propagates at once: it is f's own
    verdict, not a sign that f wants single points.  Where a point call
    raises anything else, ``fail(p)``, when given, is raised from it.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim == 2 and P.shape[0] == P.shape[1]:
        try:
            return np.array([float(f(p)) for p in P])
        except GaugeIntError:
            raise
        except Exception:
            pass
    try:
        vals = np.asarray(f(P), dtype=float)
        if vals.shape == (P.shape[0],):
            return vals
    except GaugeIntError:
        raise
    except Exception:
        pass
    vals = []
    for p in P:
        try:
            vals.append(float(f(p)))
        except Exception as exc:
            if fail is None or isinstance(exc, GaugeIntError):
                raise
            raise fail(p) from exc
    return np.array(vals)


def _checked_values(batch, one, P, what: str) -> np.ndarray:
    """``batch()``, the values at the points P, every one finite.

    Where batch() raises, ``one(i)`` gives P[i]'s value, point by point up
    to the first failure.  UndefinedTag "<what> <point>" names the first
    point that raises or is not finite, chained from its exception.
    """
    cause = None
    try:
        vals = np.asarray(batch(), dtype=float)
    except Exception:
        vals = np.full(P.shape[0], np.nan)
        for i in range(P.shape[0]):
            try:
                vals[i] = float(one(i))
            except Exception as exc:
                cause = exc
            if not np.isfinite(vals[i]):
                break
    bad = ~np.isfinite(vals)
    if bad.any():
        point = P[int(np.argmax(bad))].tolist()
        raise UndefinedTag(f"{what} {point!r}") from cause
    return vals


def _integrand_values(f, P, what: str = "integrand undefined at tag"):
    """f at the points P through ``_eval_points``, every value finite; see
    ``_checked_values``."""
    P = np.asarray(P, dtype=float)
    return _checked_values(lambda: _eval_points(f, P), lambda i: f(P[i]), P,
                           what)


class PrimitiveControl:
    """Additive interval control built from a point primitive F.

    Value of a single interval is F(d) - F(c); the value of a union is the
    sum of its interval values.  Budgets are compared against absolute
    values, matching the nonnegative charge |F|.

    Every control the carve machinery accepts (this class,
    ``IntervalCharge``, the chain row control) defines ``eval_one(c, d)``,
    ``eval_many(cs, ds)`` and ``union_value(intervals)``.
    """

    def __init__(self, F: Callable[[float], float], name: str = "charge"):
        self.F = F
        self.name = name

    def eval_one(self, c: float, d: float) -> float:
        return float(self.F(d)) - float(self.F(c))

    def eval_many(self, cs, ds) -> np.ndarray:
        # one call on the stacked ends: the rights, then the lefts
        ds = np.asarray(ds, dtype=float)
        vals = _eval_points(self.F, np.concatenate([ds, np.asarray(cs, float)]))
        return vals[:ds.shape[0]] - vals[ds.shape[0]:]

    def union_value(self, intervals: Sequence[tuple]) -> float:
        if not intervals:
            return compensated_sum(())
        ends = np.array(intervals, dtype=float)
        return compensated_sum(self.eval_many(ends[:, 0], ends[:, 1]))


def _refine_carve(control, y, lo, hi, w, wcap, budget, zoom_rounds: int = 8,
                  clear: float = 0.0, zoom_pairs: int = 8):
    """Widest interval [c, d] containing y inside [lo, hi] under the budget.

    Width is capped by min(2w, wcap).  Anchor pairs from a 17x17 endpoint
    grid are evaluated in one batch; if any already meets the budget the
    widest such pair wins.  Otherwise the most promising anchors (smallest
    |control|, plus the widest few) are refined by local zoom grids
    (spacing divided by 4 per round) minimizing |control|, and the widest
    rescued pair wins, so the carve is as wide as the control allows.
    Sides with room keep at least ``clear`` distance from y (no slivers
    next to the zero point); a side where the window ends at y stays
    pinned there.  A side with room must stay strictly off y, or the
    leftover segment would end where the gauge vanishes and no fine
    family could cover it.  Returns (value, c, d) or None.
    """
    cl = max(lo, y - w)
    dr = min(hi, y + w)
    gap = max(clear, 64.0 * math.ulp(max(abs(y), abs(lo), abs(hi))))
    c_hi = max(y - gap, cl) if y > cl else y
    d_lo = min(y + gap, dr) if dr > y else y
    cs = np.linspace(cl, c_hi, 17) if y > cl else np.array([y])
    ds = np.linspace(d_lo, dr, 17) if dr > y else np.array([y])
    sc = (y - cl) / 16.0 if y > cl else 0.0
    sd = (dr - y) / 16.0 if dr > y else 0.0
    slack = sc + sd
    C, D = (g.ravel() for g in np.meshgrid(cs, ds, indexing="ij"))
    keep = (D > C) & (D - C <= wcap + slack)
    C, D = C[keep], D[keep]
    if C.shape[0] == 0:
        return None
    vals = np.abs(control.eval_many(C, D))

    # Pairs already under budget compete on width with zoom-rescued wide
    # pairs; an instantly acceptable narrow pair must not shadow a wide
    # anchor whose refinement would also pass.
    cand = set(np.argsort(vals)[:zoom_pairs].tolist())
    cand.update(np.argsort(D - C)[-4:].tolist())
    cand.update(np.flatnonzero((vals < budget) & (D - C <= wcap)).tolist())
    best = None
    for i in cand:
        vb, cb, db = float(vals[i]), float(C[i]), float(D[i])
        spc, spd = sc, sd
        for _round in range(zoom_rounds):
            if vb < budget and (db - cb) <= wcap:
                break
            ccs = np.linspace(max(cl, cb - spc), min(c_hi, cb + spc), 9) \
                if y > cl else np.array([cb])
            dds = np.linspace(max(d_lo, db - spd), min(dr, db + spd), 9) \
                if dr > y else np.array([db])
            CC, DD = (g.ravel() for g in np.meshgrid(ccs, dds, indexing="ij"))
            kk = DD > CC
            CC, DD = CC[kk], DD[kk]
            if CC.shape[0]:
                vv = np.abs(control.eval_many(CC, DD))
                k = int(np.argmin(vv))
                if vv[k] < vb:
                    vb, cb, db = float(vv[k]), float(CC[k]), float(DD[k])
            spc *= 0.25
            spd *= 0.25
        if vb < budget and db > cb and (db - cb) <= wcap:
            if best is None or (db - cb) > (best[2] - best[1]):
                best = (vb, cb, db)
    if best is not None:
        best = _widen_carve(control, best, cl, dr, wcap, budget)
    return best


def _widen_carve(control, best, cl, dr, wcap, budget, steps: int = 46):
    """Push each carve edge outward to the largest verified-acceptable
    position.

    The zoom stage stops at the first width that dips under the budget,
    which for monotone controls (mass, length) can be far narrower than
    the budget permits.  Each bisection step keeps the inner point at a
    directly evaluated acceptable pair, so non-monotone controls simply
    stop at whichever boundary they hit first.
    """
    vb, cb, db = best
    hi_d = min(dr, cb + wcap)
    if hi_d > db:
        lo = db
        for _ in range(steps):
            mid = 0.5 * (lo + hi_d)
            v = abs(control.eval_one(cb, mid))
            if v < budget:
                lo, vb = mid, v
            else:
                hi_d = mid
        db = lo
    lo_c = max(cl, db - wcap)
    if lo_c < cb:
        hi = cb
        for _ in range(steps):
            mid = 0.5 * (lo_c + hi)
            v = abs(control.eval_one(mid, db))
            if v < budget:
                hi, vb = mid, v
            else:
                lo_c = mid
        cb = hi
    return (vb, cb, db)


def _carve_intervals(host, zero_points, control, budgets, *, weight_fn=None,
                     weight_budgets=None, ladder_steps: int = 46,
                     clear: float = 0.0):
    """One disjoint interval per gauge-zero point, each under its charge budget.

    Carve widths start at the biggest width the point's window allows and
    halve until the best achievable |control| value fits the budget, so easy
    charges get small carves and oscillating charges get wide carves anchored
    at near-zeros of the charge.  ContinuityBudgetFail if the ladder is
    exhausted.  Inside a seed store (see ``_shared_seeds``) a call takes
    the carve an earlier call made with the same inputs.
    """
    a, b = host
    pts = [float(y) for y in zero_points]
    order_sorted = sorted(range(len(pts)), key=lambda i: pts[i])
    windows = {}
    for rank, i in enumerate(order_sorted):
        y = pts[i]
        lo = a if rank == 0 else 0.5 * (pts[order_sorted[rank - 1]] + y)
        hi = b if rank == len(pts) - 1 else 0.5 * (y + pts[order_sorted[rank + 1]])
        windows[i] = (lo, hi)

    store = _SEED_STORE.get()
    carves = []
    for j, y in enumerate(pts):
        budget = budgets[j]
        lo, hi = windows[j]
        wmax = max(y - lo, hi - y)
        if wmax <= 0.0:
            raise ContinuityBudgetFail(f"no room to carve around {y!r}")
        wcap = math.inf
        if weight_fn is not None:
            # the carve pair is tagged at y
            fy = float(_integrand_values(weight_fn, [y])[0])
            if fy != 0.0:
                wcap = weight_budgets[j] / abs(fy)
        # everything the ladder reads; the entry holds the control, so its
        # id is not reused while the key lives
        key = ("carve", id(control), a, b, y, lo, hi, budget, wcap, clear,
               ladder_steps)
        if store is not None and key in store:
            carves.append(store[key][1])
            continue
        found = None
        # deep dyadic weight budgets can demand very narrow carves; the
        # floor only guards against float-degenerate pairs at the point
        w_floor = 64.0 * math.ulp(max(abs(y), abs(a), abs(b)))
        w = min(wmax, wcap / 2.0) if math.isfinite(wcap) else wmax
        for _step in range(ladder_steps):
            if w < w_floor:
                break
            hit = _refine_carve(control, y, lo, hi, w, wcap, budget,
                                clear=clear)
            if hit is not None:
                _val, c, d = hit
                found = (c, d, y)
                break
            w *= 0.5
        if found is None:
            raise ContinuityBudgetFail(
                f"no interval around {y!r} meets charge budget {budget:.3e}")
        if store is not None:
            store[key] = (control, found)
        carves.append(found)
    carves.sort()
    for (c1, d1, _), (c2, _d2, _) in zip(carves, carves[1:]):
        if d1 > c2:
            raise ContinuityBudgetFail("carve windows overlapped; zero points too close")
    return carves


@dataclass
class FamilyConstruction:
    """Result of a Howard-Cousin build: covered family + carve record."""

    family: TaggedFamily1D            # fine family, tags off the zero set
    carves: TaggedFamily1D            # carve intervals tagged at zero points
    remainder_value: float            # control value of the carved-out union
    gauge: Gauge

    @cached_property
    def partition(self) -> TaggedFamily1D:
        """Family plus carve pairs, merged once; a partition of the host."""
        if self.carves.n == 0:
            return self.family
        return self.family.merged(self.carves)


def howard_cousin_family(host: tuple, gauge: Gauge, control, tau: float, *,
                         tag_order: str = "left", zero_order: str = "declared",
                         f_weight=None, eps_weight: Optional[float] = None,
                         max_depth: int = 64,
                         max_nodes: int = 4_000_000) -> FamilyConstruction:
    """Fine tagged family whose uncovered remainder has |control| < tau.

    Around the j-th gauge-zero point an interval with |control| below
    2**-(j+1) * tau is carved out (and, when ``f_weight`` is given, with
    width * |f(y_j)| below 2**-(j+1) * eps_weight, so the carve pairs can be
    kept in a Riemann sum); Cousin bisection covers the rest, where the
    gauge is positive.  The remainder is exactly the union of carves and its
    control value is returned after being checked against tau.

    The segments between the carves are bisected by one
    ``cousin_partition`` call on the list of them, so each depth of the
    construction is one gauge batch per candidate column however many
    segments there are.  The families, the budgets (per segment) and the
    error raised are those of a loop of lone ``cousin_partition`` calls.

    The seed store ``_certify`` opens around the two seeds' builds also
    holds the carves: a seed asking for a carve with the same control,
    window and budgets as one already made takes it, bit for bit.  With
    one zero point the seeds' budgets agree, so the second seed searches
    no carve; with several, the reversed budget order gives each seed
    carves of its own.
    """
    if zero_order not in _ZERO_ORDERS:
        raise ValueError(f"zero order must be one of {_ZERO_ORDERS}")
    a, b = float(host[0]), float(host[1])
    zero_pts = [y for y in gauge.zero_set if a <= y <= b]
    if zero_order == "reversed":
        zero_pts = zero_pts[::-1]
    if not zero_pts:
        fam = cousin_partition((a, b), gauge, tag_order=tag_order,
                               max_depth=max_depth, max_nodes=max_nodes)
        empty = TaggedFamily1D((a, b), [], [], [])
        return FamilyConstruction(fam, empty, 0.0, gauge)
    if control is None:
        raise InvalidGauge("gauge has a zero set but no control charge was supplied")
    if not (tau > 0.0):
        raise ValueError(f"tau {tau!r} must be positive")
    budgets = [tau * 2.0 ** -(j + 1) for j in range(1, len(zero_pts) + 1)]
    wbudgets = None
    if f_weight is not None:
        if eps_weight is None:
            raise ValueError("eps_weight required with f_weight")
        wbudgets = [eps_weight * 2.0 ** -(j + 1) for j in range(1, len(zero_pts) + 1)]
    carves = _carve_intervals((a, b), zero_pts, control, budgets,
                              weight_fn=f_weight, weight_budgets=wbudgets,
                              clear=getattr(gauge, "min_clearance", 0.0))

    segments = []
    cur = a
    for c, d, _y in carves:
        if c > cur:
            segments.append((cur, c))
        cur = d
    if cur < b:
        segments.append((cur, b))

    fam = TaggedFamily1D((a, b), [], [], [])
    if segments:
        part = cousin_partition(segments, gauge, tag_order=tag_order,
                                max_depth=max_depth, max_nodes=max_nodes)
        fam = TaggedFamily1D((a, b), part.lefts, part.rights, part.tags)
    carve_fam = TaggedFamily1D((a, b),
                               [c for c, _d, _y in carves],
                               [d for _c, d, _y in carves],
                               [y for _c, _d, y in carves])
    remainder = control.union_value([(c, d) for c, d, _y in carves])
    if abs(remainder) >= tau:
        raise ContinuityBudgetFail(
            f"remainder charge {remainder!r} not below tau {tau!r}")
    return FamilyConstruction(fam, carve_fam, remainder, gauge)


# ---------------------------------------------------------------------------
# Riemann sums and certification


def riemann_sum(f, family: TaggedFamily1D) -> float:
    """Sum of f(tag) * width over the family, correctly rounded.

    f is called once on the array of tags when it accepts arrays, else
    once per tag.  UndefinedTag where f raises or is not finite.
    """
    if family.n == 0:
        return 0.0
    return compensated_sum(_integrand_values(f, family.tags) * family.widths)


@dataclass
class Certificate:
    """Evidence for a certified value: two independent constructions."""

    sum1: float
    sum2: float
    gauge_name: str
    sizes: tuple = (0, 0)
    tau: Optional[float] = None
    remainders: tuple = (0.0, 0.0)
    families: tuple = ()          # optional (TaggedFamily1D, TaggedFamily1D)
    # largest Saks-Henstock audit of a proof gauge's own pair over the
    # constructions, None when no gauge carries a pair (see ``_certify``)
    audit: Optional[float] = None

    @property
    def gap(self) -> float:
        return abs(self.sum1 - self.sum2)


@dataclass
class HKResult:
    """Certified integral: value, achieved two-seed gap, and the evidence."""

    value: float
    epsilon: float
    certificate: Certificate
    partial_sums: tuple = ()


@dataclass
class Schedule:
    """eps -> gauge, with the control charge used to carve around the
    gauge's zeros.  The remainder budget is eps/4 unless a tau schedule is
    given (see ``_tau_list``)."""

    gauge: Callable
    control: object = None


def as_schedule(obj, control=None) -> Schedule:
    """Normalize a schedule: a Schedule is returned unchanged, a Gauge or
    an AmbientGauge is a fixed gauge, and any other callable is eps ->
    gauge.  ``control`` goes with a schedule made here.  TypeError on
    anything else."""
    from .currents1d import AmbientGauge  # currents1d imports this module

    if isinstance(obj, Schedule):
        return obj
    if isinstance(obj, (Gauge, AmbientGauge)):
        return Schedule(lambda eps: obj, control)
    if callable(obj):
        return Schedule(obj, control)
    raise TypeError(f"cannot interpret {obj!r} as a gauge schedule")


def uniform_schedule(a: float, b: float, h) -> Schedule:
    """Built-in schedule: uniform gauge, width h or h(eps)."""
    if callable(h):
        return Schedule(lambda eps: Gauge.uniform(a, b, h(eps)))
    return as_schedule(Gauge.uniform(a, b, h))


def proportional_schedule(a: float, b: float, anchor: float, rate_of_eps,
                          control=None) -> Schedule:
    """Gauge proportional to the distance from an anchor where it vanishes.

    Suited to integrands with a one-sided singularity at the anchor whose
    primitive is monotone there: the family error is bounded by the rate
    times the weighted variation, independent of how steep the integrand is.
    """
    def build(eps: float) -> Gauge:
        rate = rate_of_eps(eps) if callable(rate_of_eps) else float(rate_of_eps)
        return Gauge.proportional(a, b, anchor, rate)

    return Schedule(build, control)


def ftc_schedule(F, Fprime, exceptional: Sequence[float], host: tuple) -> Schedule:
    """Built-in schedule carrying the proof gauge of F and the |F| control.

    The gauge vanishes on the exceptional set, so hk_integrate runs the
    carve construction with charge budgets from |F| and keeps the carve
    pairs in the partition.
    """
    a, b = host

    def build(eps: float) -> Gauge:
        return ftc_gauge(F, Fprime, exceptional, eps, (a, b),
                         zero_at_exceptional=True)

    return Schedule(build, control=PrimitiveControl(F))


# Certification seeds: seed -> (tag order, zero order) of its construction.
_SEED_ORDERS = {"left": ("left", "declared"), "right": ("right", "reversed")}


def _tau_list(tau_schedule, eps: float) -> list:
    """Remainder budgets, largest first: eps/4 when tau_schedule is None,
    else a number, an eps -> tau callable, or a list.  ValueError unless
    eps > 0 and every tau is positive and finite."""
    if not (eps > 0.0):
        raise ValueError(f"eps {eps!r} must be positive")
    if tau_schedule is None:
        return [eps / 4.0]
    if callable(tau_schedule):
        taus = [float(tau_schedule(eps))]
    elif np.isscalar(tau_schedule):
        taus = [float(tau_schedule)]
    else:
        taus = sorted((float(t) for t in tau_schedule), reverse=True)
    if not taus:
        raise ValueError("empty tau schedule")
    for tau in taus:
        if not (0.0 < tau < math.inf):
            raise ValueError(f"tau {tau!r} must be positive and finite")
    return taus


def _covered_parts(fc: FamilyConstruction) -> list:
    """The audited part of an interval construction: its covered family,
    when its gauge carries a pair (see ``_audit``)."""
    return [(fc.gauge, 1.0, fc.family)] if fc.gauge._ftc_pair else []


def _audit(parts, eps: float) -> Optional[tuple]:
    """Saks-Henstock audit of one construction against its proof gauges.

    ``parts`` lists (gauge, weight, covered family) for each part whose
    gauge carries its pair (F, F'); the audit is the exact sum of weight *
    ``saks_henstock_audit(F', F, family)``.  For each part's partition,
    |f(t) w - dF| summed bounds how far its Riemann sum of F' is from F's
    increments, so an audit at or above eps/2 is evidence against the
    gauge.  Returns None without parts, else (audit, failure): failure is
    None below eps/2, else the AuditFail to raise, naming the gauge, eps,
    the audit and the interval that adds most.
    """
    if not parts:
        return None
    value = exact_sum([w * saks_henstock_audit(g._ftc_pair[1], g._ftc_pair[0],
                                               fam)
                       for g, w, fam in parts])
    if value < eps / 2.0:
        return value, None
    worst = None
    for g, w, fam in parts:
        if fam.n:
            terms = w * _audit_terms(g._ftc_pair[1], g._ftc_pair[0], fam)
            i = int(np.argmax(terms))
            if worst is None or terms[i] > worst[0]:
                worst = (float(terms[i]), g, fam, i)
    term, g, fam, i = worst
    return value, AuditFail(
        f"{g.name}: Saks-Henstock audit {value!r} of the gauge's own "
        f"primitive is not below eps/2 = {eps / 2.0!r} (eps {float(eps)!r}); "
        f"the interval [{float(fam.lefts[i])!r}, {float(fam.rights[i])!r}] "
        f"tagged at {float(fam.tags[i])!r} adds {term!r}")


def _certify(build, total, eps: float, taus: Sequence[float], gauge_name: str,
             size, keep: bool = False, parts=_covered_parts) -> HKResult:
    """Henstock's Cauchy test on two independently seeded constructions.

    ``build(tau, tag_order, zero_order)`` makes one construction, ``total``
    gives its Riemann sum and ``size`` its number of tagged intervals or
    pieces.  Seed "left" is built at every tau of ``taus`` (largest first,
    see ``_tau_list``) and seed "right" at the smallest; each (tau, sum) is
    a row.  Each larger tau's left build runs in a seed store of its own,
    and the smallest tau's left build shares one with the right seed (see
    ``_shared_seeds``).  Each construction is audited once summed, where
    ``parts`` finds proof gauges in it (see ``_audit``).  The gap is the
    spread of all the sums, and CauchyFail (carrying the rows) unless it
    is below eps; then AuditFail, from the first construction whose audit
    is not below eps/2.  The HKResult's value is the midpoint of the two
    seeds' sums at the smallest tau, and its certificate keeps the largest
    audit, and the two constructions only when ``keep``.
    """
    rows = []
    audits = []

    def summed(tau, construction):
        rows.append((tau, total(construction)))
        audited = _audit(parts(construction), eps)
        if audited is not None:
            audits.append(audited)

    for tau in taus[:-1]:
        # only the smallest tau has a right seed to share a pass with
        with _shared_seeds():
            left = build(tau, *_SEED_ORDERS["left"])
        summed(tau, left)
    with _shared_seeds():
        left = build(taus[-1], *_SEED_ORDERS["left"])
        summed(taus[-1], left)
        right = build(taus[-1], *_SEED_ORDERS["right"])
        summed(taus[-1], right)
    sums = [s for _tau, s in rows]
    gap = max(sums) - min(sums)
    failures = [fail for _audit_value, fail in audits if fail is not None]
    if not (gap < eps) or failures:
        # the traceback keeps this frame alive as long as the exception is
        # held, so let go of the constructions first
        del left, right
        if not (gap < eps):
            raise CauchyFail(sums[-2], sums[-1], eps, partial_sums=rows,
                             detail=f"spread over the tau schedule is {gap!r}")
        raise failures[0]
    cert = Certificate(sum1=sums[-2], sum2=sums[-1], gauge_name=gauge_name,
                       sizes=(size(left), size(right)), tau=taus[-1],
                       remainders=(left.remainder_value,
                                   right.remainder_value),
                       families=(left, right) if keep else (),
                       audit=max((v for v, _fail in audits), default=None))
    return HKResult(value=0.5 * (sums[-2] + sums[-1]), epsilon=gap,
                    certificate=cert, partial_sums=tuple(rows))


def hk_integrate(f, schedule, eps: float, *, vectorized: bool = False,
                 keep_families: bool = False, max_depth: int = 64,
                 max_nodes: int = 4_000_000) -> HKResult:
    """Certified gauge integral over the schedule's host.

    Two tagged partitions are built from independent deterministic seeds
    (left-first vs right-first candidate order; carve budgets assigned in
    reversed order for the second seed).  Their Riemann sums must agree
    within eps, else CauchyFail with both sums as (tau, sum) rows; the
    result carries the same rows as ``partial_sums``.  The returned value
    is the midpoint of the two certified sums and ``epsilon`` is the
    achieved gap.  Each construction bisects its segments in one
    ``cousin_partition`` call, and the right seed takes the segments it
    shares with the left one from the left seed's pass.

    For gauges with a declared zero set the partition is carves plus covered
    family; carve pairs are tagged at the zero points and kept in the sum,
    with widths shrunk so each tag's contribution is under its budget.
    ``Certificate.tau`` is None for a positive gauge, which carves nothing.
    A proof gauge (``ftc_gauge``, as ``ftc_schedule`` builds) is audited
    against its own primitive on each seed's covered family: once the seeds
    agree, AuditFail at or above eps/2, else ``Certificate.audit`` is the
    larger audit.
    ``vectorized`` has no effect: ``riemann_sum`` decides how to call f.
    """
    sched = as_schedule(schedule)
    taus = _tau_list(None, eps)
    gauge = sched.gauge(eps)

    def build(tau, tag_order, zero_order):
        return howard_cousin_family(gauge.host, gauge, sched.control, tau,
                                    tag_order=tag_order, zero_order=zero_order,
                                    f_weight=f if gauge.zero_set else None,
                                    eps_weight=eps / 2.0,
                                    max_depth=max_depth, max_nodes=max_nodes)

    def total(fc):
        part = fc.partition
        if not part.is_partition:
            raise DepthExceeded("construction failed to partition the host")
        return riemann_sum(f, part)

    res = _certify(build, total, eps, taus, gauge.name,
                   lambda fc: fc.partition.n, keep=keep_families)
    if not gauge.zero_set:
        res.certificate.tau = None
    return res


# ---------------------------------------------------------------------------
# the proof gauge of a primitive


def ftc_gauge(F, Fprime, exceptional: Sequence[float], eps: float, host: tuple, *,
              zero_at_exceptional: bool = False,
              name: Optional[str] = None) -> Gauge:
    """Gauge realizing the differentiability estimate of a primitive.

    At an ordinary point x the value is a dyadic radius r = L 2**-k (L the
    host length, k up to 39, about 1e-12 of L) whose pair x +- r, clipped to
    the host, satisfies |F(y) - F(x) - F'(x)(y - x)| < (eps/2) |y - x| / L.
    The search gallops k through 0, 1, 2, 4, 8, 16, 32, 39 to the first
    pair that passes, then bisects between it and the last that failed.
    At the j-th exceptional point the width is instead chosen so the
    sampled oscillation of F on any containing interval of that width is
    below eps / 2**(j+2), or the gauge is pinned to 0 there when
    ``zero_at_exceptional`` (family construction).  SearchFail, naming the
    gauge, when no admissible radius exists above the floor or no width
    tames the oscillation at an exceptional point.

    The pair is a sample: it proves nothing about the other points within
    r.  The proof is the Saks-Henstock audit: the gauge carries (F, F'),
    and ``_certify`` sums |F'(t) w - dF| over each covered family the gauge
    builds and raises AuditFail unless that is below eps/2 (see
    ``_audit``).  Each batch evaluates F(x) and F'(x) once, and F once per
    probe on the stacked pair points, so F and F' must be elementwise on
    1-d arrays.  The gauge takes a float or an array of any shape.
    """
    a, b = float(host[0]), float(host[1])
    L = b - a
    if not (L > 0.0 and eps > 0.0):
        raise ValueError("host must be nondegenerate and eps positive")
    coeff = (eps / 2.0) / L
    exc = [float(y) for y in exceptional]
    gname = name or f"ftc[eps={float(eps)!r}]"

    exc_delta = {}
    for j, y in enumerate(exc, start=1):
        if zero_at_exceptional:
            exc_delta[y] = 0.0
        else:
            exc_delta[y] = _oscillation_width(F, y, (a, b), eps / 2.0 ** (j + 2),
                                              gname)

    def fn(xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        out = np.empty(flat.shape, dtype=float)
        rem_mask = np.ones(flat.shape, dtype=bool)
        for y, dval in exc_delta.items():
            m = flat == y
            out[m] = dval
            rem_mask &= ~m
        idx = np.nonzero(rem_mask)[0]
        if idx.size == 0:
            return out.reshape(xs.shape)
        x = flat[idx]
        n = x.shape[0]
        Fx = np.asarray(F(x), dtype=float)
        Fpx = np.asarray(Fprime(x), dtype=float)

        def admissible(rows, ks):
            # the inequality at the pair x[rows] +- L * 2**-ks, clipped to
            # the host, with one F call on both sides
            xr, Fxr, Fpxr = x[rows], Fx[rows], Fpx[rows]
            r = L * np.ldexp(1.0, -ks)
            ys = np.concatenate([xr + r, xr - r])
            np.clip(ys, a, b, out=ys)
            xr, Fxr, Fpxr = (np.concatenate([v, v]) for v in (xr, Fxr, Fpxr))
            dy = ys - xr
            Fy = np.asarray(F(ys), dtype=float)
            lin = Fpxr * dy
            rem = np.abs(Fy - Fxr - lin)
            # Remainders at rounding-noise level are uninformative: in exact
            # arithmetic they are far below the bound whenever the bound
            # itself is below float resolution of F.  Without this,
            # admissibility at tiny radii is decided by cancellation noise.
            noise = 64.0 * np.finfo(float).eps * (
                np.abs(Fxr) + np.abs(Fy) + np.abs(lin))
            good = (rem < coeff * np.abs(dy)) | (rem <= noise) | (dy == 0.0)
            m = rows.shape[0]
            return good[:m] & good[m:]

        # Gallop down (radius halving fast) to the first admissible exponent,
        # then bisect inside the bracket.  Probes never go much below the
        # answer, which keeps them out of the cancellation-noise regime.
        lo = np.full(n, -1, dtype=np.int64)
        hi = np.full(n, -1, dtype=np.int64)
        prev = np.full(n, -1, dtype=np.int64)
        unresolved = np.ones(n, dtype=bool)
        for k in (0, 1, 2, 4, 8, 16, 32, _RADIUS_FLOOR_EXP):
            if not unresolved.any():
                break
            sel = np.nonzero(unresolved)[0]
            ok = admissible(sel, np.full(sel.shape, k, dtype=np.int64))
            hit = sel[ok]
            hi[hit] = k
            lo[hit] = prev[hit]
            unresolved[hit] = False
            prev[sel[~ok]] = k
        if unresolved.any():
            bad = float(x[unresolved][0])
            raise SearchFail(
                f"{gname}: no admissible radius above the floor at x = {bad!r}")
        while True:
            active = (hi - lo) > 1
            if not active.any():
                break
            mid = (lo + hi) // 2
            ok = admissible(np.nonzero(active)[0], mid[active])
            hi[active] = np.where(ok, mid[active], hi[active])
            lo[active] = np.where(ok, lo[active], mid[active])
        out[idx] = L * np.ldexp(1.0, -hi)
        return out.reshape(xs.shape)

    zs = tuple(y for y, d in exc_delta.items() if d == 0.0)
    # Carve edges must stay clear of the radius search's resolution floor.
    gauge = Gauge(a, b, fn, zs, name=gname,
                  min_clearance=L * 2.0 ** -(_RADIUS_FLOOR_EXP - 3))
    object.__setattr__(gauge, "_ftc_pair", (F, Fprime))
    return gauge


def _oscillation_width(F, y: float, host: tuple, bound: float, gname: str,
                       samples: int = 65) -> float:
    """Largest dyadic width w with sampled osc(F, [y-w, y+w] cut to host) < bound."""
    a, b = host
    L = b - a

    def osc_ok(w):
        lo, hi = max(a, y - w), min(b, y + w)
        ys = np.linspace(lo, hi, samples)
        vals = np.asarray(F(ys), dtype=float)
        if not np.all(np.isfinite(vals)):
            return False
        return float(vals.max() - vals.min()) < bound

    lo_k, hi_k = -1, _RADIUS_FLOOR_EXP
    if osc_ok(L):
        return L
    if not osc_ok(L * 2.0 ** -_RADIUS_FLOOR_EXP):
        raise SearchFail(f"{gname}: oscillation of F at {y!r} exceeds "
                         f"{float(bound)!r} at the floor width")
    lo_k = 0
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if osc_ok(L * 2.0 ** -mid):
            hi_k = mid
        else:
            lo_k = mid
    return L * 2.0 ** -hi_k


# ---------------------------------------------------------------------------
# audits and probes


def saks_henstock_audit(f, F, family: TaggedFamily1D, *,
                        vectorized: bool = False) -> float:
    """Sum of |f(tag) * width - (F(right) - F(left))| over the family.

    f and F are called as in ``riemann_sum``.  UndefinedTag where f raises
    or is not finite at a tag, or F at an interval end.  ``vectorized`` has
    no effect.
    """
    if family.n == 0:
        return 0.0
    return compensated_sum(_audit_terms(f, F, family))


def _audit_terms(f, F, family: TaggedFamily1D) -> np.ndarray:
    """|f(tag) * width - (F(right) - F(left))| per interval of the family."""
    vals = _integrand_values(f, family.tags)
    ends = _integrand_values(F, np.concatenate([family.rights, family.lefts]),
                             "primitive F undefined at interval end")
    dF = ends[:family.n] - ends[family.n:]
    return np.abs(vals * family.widths - dF)


def ac_star_probe(F, null_set: Sequence[float], gauge: Gauge, *,
                  trials: int = 64, seed: int = 0) -> float:
    """Max over fine families anchored in the null set of sum |dF|.

    F may be a point primitive (callable) or a control with
    eval_many(cs, ds).  Families place one interval around each null point,
    width below the gauge there, clipped to half-gaps so intervals never
    overlap.  The first family takes every width at its cap (it dominates
    for monotone charges); the remaining trials draw widths at random to
    catch oscillating charges whose increments cancel at full width.  Large
    values against shrinking gauges witness failure of the AC* property.
    """
    import random as _random

    pts = sorted(float(y) for y in null_set)
    if not pts:
        return 0.0
    a, b = gauge.host
    ys = np.array(pts)
    half_gaps = 0.5 * (ys[1:] - ys[:-1])
    left_room = np.concatenate([[ys[0] - a], half_gaps])
    right_room = np.concatenate([half_gaps, [b - ys[-1]]])
    dys = gauge.eval_many(ys)
    anchored = dys > 0.0
    ys, dys = ys[anchored], dys[anchored]
    left_cap = np.minimum(0.5 * dys, left_room[anchored])
    right_cap = np.minimum(0.5 * dys, right_room[anchored])
    rng = _random.Random(seed)
    worst = 0.0
    for trial in range(trials):
        if trial == 0:
            ul = ur = 1.0
        else:
            # drawn in the anchor order of the scalar loop: ul, ur per anchor
            u = np.array([rng.random() for _ in range(2 * ys.shape[0])])
            ul, ur = u[0::2], u[1::2]
        wl = 0.999 * ul * left_cap
        wr = 0.999 * ur * right_cap
        kept = wl + wr > 0.0
        cs, ds = ys[kept] - wl[kept], ys[kept] + wr[kept]
        if hasattr(F, "eval_many"):
            incr = np.asarray(F.eval_many(cs, ds), dtype=float)
        else:
            incr = _eval_points(F, ds) - _eval_points(F, cs)
        total = compensated_sum(np.abs(incr))
        if total > worst:
            worst = total
    return worst


def pointwise_lip(F, x: float, radii: Sequence[float],
                  host: Optional[tuple] = None) -> float:
    """Sampled slope bound: max |F(y)-F(x)| / |y-x| over y within min(radii).

    Sixteen offset magnitudes on both sides of x, clipped to the host.
    Calling with a descending radius schedule and watching the estimates
    shrink probes the pointwise Lipschitz constant at x.
    """
    r = min(float(v) for v in radii)
    if not (r > 0.0):
        raise ValueError("radii must be positive")
    steps = r * (np.arange(1, 17) / 16.0)
    ys = x + np.concatenate([steps, -steps])
    if host is not None:
        ys = np.clip(ys, host[0], host[1])
    ys = ys[ys != x]
    vals = _eval_points(F, np.concatenate([[x], ys]))
    ratios = np.abs(vals[1:] - vals[0]) / np.abs(ys - x)
    # a nan ratio never raises the bound
    return float(np.max(ratios[ratios > 0.0], initial=0.0))
