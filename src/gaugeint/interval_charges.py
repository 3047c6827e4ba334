"""Charges on finite unions of subintervals.

A charge assigns a real value to finite unions of closed subintervals of a
host.  Declared traits (additive, subadditive, nonnegative, continuous) are
enforced by randomized sampled checks at construction, because the library
can falsify but never prove them.  The module also houses the positivization
of a vanishing gauge under a continuous control charge, and the full-family
integrator that certifies integrals through (G, tau)-full families instead
of partitions.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContinuityBudgetFail, TraitViolation
from .hk_core import (
    Gauge,
    HKResult,
    _certify,
    _eval_points,
    _tau_list,
    as_schedule,
    howard_cousin_family,
    riemann_sum,
)
from .sums import compensated_sum

__all__ = [
    "IntervalUnion",
    "IntervalCharge",
    "charge_from_primitive",
    "length_charge",
    "counting_charge",
    "continuity_probe",
    "positivize_gauge",
    "full_family_integrate",
]


class IntervalUnion:
    """Sorted list of closed subintervals of a host, disjoint interiors."""

    __slots__ = ("host", "intervals")

    def __init__(self, host: tuple, intervals: Iterable[tuple]):
        a, b = float(host[0]), float(host[1])
        ivs = sorted((float(c), float(d)) for c, d in intervals)
        for c, d in ivs:
            if not (a <= c <= d <= b):
                raise ValueError(f"interval [{c!r}, {d!r}] outside host [{a}, {b}]")
        for (c1, d1), (c2, _d2) in zip(ivs, ivs[1:]):
            if d1 > c2:
                raise ValueError(f"intervals overlap near {d1!r}")
        self.host = (a, b)
        self.intervals = tuple(ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def length(self) -> float:
        return compensated_sum(d - c for c, d in self.intervals)

    def __or__(self, other: "IntervalUnion") -> "IntervalUnion":
        if other.host != self.host:
            raise ValueError("unions live on different hosts")
        return IntervalUnion(self.host, self.intervals + other.intervals)

    def __repr__(self) -> str:
        return f"IntervalUnion({self.host}, {list(self.intervals)})"


_TRAIT_NAMES = ("additive", "subadditive", "nonnegative", "continuous")


def _random_union(rng: random.Random, lo: float, hi: float, max_count: int) -> list:
    cuts = sorted(rng.uniform(lo, hi) for _ in range(2 * rng.randint(1, max_count)))
    return [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]


class IntervalCharge:
    """Real-valued function on interval unions with declared traits.

    ``fn`` maps a list of (c, d) pairs to a real.  Traits are sampled at
    construction (seeded, reproducible): additivity and subadditivity on
    random union pairs living in disjoint halves of the host, nonnegativity
    on random unions.  ``continuity_modulus``, when given, maps
    (count_bound, total_length) to a bound on |value|; the continuity trait
    itself is only probed, never enforced.
    """

    def __init__(self, host: tuple, fn: Callable[[Sequence[tuple]], float],
                 traits: Iterable[str] = (), name: str = "charge",
                 continuity_modulus: Optional[Callable[[int, float], float]] = None,
                 validate: bool = True, seed: int = 2021):
        self.host = (float(host[0]), float(host[1]))
        self.fn = fn
        self.traits = frozenset(traits)
        unknown = self.traits.difference(_TRAIT_NAMES)
        if unknown:
            raise ValueError(f"unknown traits {sorted(unknown)}")
        self.name = name
        self.continuity_modulus = continuity_modulus
        if validate:
            self._validate_traits(seed)

    # charge protocol shared with hk_core carve machinery
    def eval_one(self, c: float, d: float) -> float:
        return float(self.fn([(c, d)]))

    def eval_many(self, cs, ds) -> np.ndarray:
        return np.array([float(self.fn([(c, d)])) for c, d in zip(cs, ds)])

    def union_value(self, intervals: Sequence[tuple]) -> float:
        return float(self.fn(list(intervals)))

    def eval(self, union) -> float:
        if isinstance(union, IntervalUnion):
            return float(self.fn(list(union.intervals)))
        return float(self.fn(list(union)))

    def __call__(self, union) -> float:
        return self.eval(union)

    def _validate_traits(self, seed: int, rounds: int = 24) -> None:
        rng = random.Random(seed)
        a, b = self.host
        mid = 0.5 * (a + b)
        tol = 1e-9
        scale = 1.0
        for _ in range(rounds):
            U = _random_union(rng, a, mid, 3)
            V = _random_union(rng, mid, b, 3)
            vU, vV = self.eval(U), self.eval(V)
            vUV = self.eval(U + V)
            scale = max(scale, abs(vU), abs(vV))
            if "additive" in self.traits:
                if abs(vUV - (vU + vV)) > tol * scale:
                    raise TraitViolation(
                        f"{self.name} not additive: {vUV!r} vs {vU!r}+{vV!r}")
            if "subadditive" in self.traits:
                if abs(vUV) > abs(vU) + abs(vV) + tol * scale:
                    raise TraitViolation(
                        f"{self.name} not subadditive on sampled pair")
            if "nonnegative" in self.traits:
                if min(vU, vV, vUV) < -tol * scale:
                    raise TraitViolation(f"{self.name} negative on sampled union")


def charge_from_primitive(F: Callable[[float], float], host: tuple,
                          name: Optional[str] = None) -> IntervalCharge:
    """Additive continuous charge U -> sum of F(d) - F(c) over U."""

    def fn(intervals):
        if not intervals:
            return 0.0
        # one call on the stacked ends: the rights, then the lefts
        ends = np.array(intervals, dtype=float)
        vals = _eval_points(F, np.concatenate([ends[:, 1], ends[:, 0]]))
        return compensated_sum(vals[:len(intervals)] - vals[len(intervals):])

    return IntervalCharge(host, fn, traits=("additive", "continuous"),
                          name=name or "dF")


def length_charge(host: tuple) -> IntervalCharge:
    def fn(intervals):
        return compensated_sum(d - c for c, d in intervals)

    def modulus(count: int, length: float) -> float:
        return length

    return IntervalCharge(host, fn,
                          traits=("additive", "subadditive", "nonnegative",
                                  "continuous"),
                          name="length", continuity_modulus=modulus)


def counting_charge(host: tuple) -> IntervalCharge:
    """Number of intervals in the union: additive but not continuous."""

    def fn(intervals):
        return float(len(intervals))

    return IntervalCharge(host, fn, traits=("additive", "nonnegative"),
                          name="count")


def continuity_probe(charge: IntervalCharge, count_bound: int,
                     length_schedule: Sequence[float], *, trials: int = 64,
                     seed: int = 7) -> list:
    """For each length budget, the sampled max of |charge| over small unions.

    Unions have at most count_bound intervals and total length at most the
    budget.  One deterministic union per budget uses exactly count_bound
    equal intervals spread across the host (so discontinuous-by-count
    charges show a flat curve); the rest are random with seeded endpoints.
    A continuous charge's curve tends to 0 with the budget.
    """
    a, b = charge.host
    rng = random.Random(seed)
    out = []
    for ell in length_schedule:
        ell = float(ell)
        best = 0.0
        w = min(ell / count_bound, (b - a) / (2 * count_bound))
        if w > 0.0:
            starts = np.linspace(a, b - w, count_bound)
            det = [(float(s), float(s + w)) for s in starts]
            best = abs(charge.eval(det))
        for _ in range(trials):
            k = rng.randint(1, count_bound)
            lengths = [rng.random() for _ in range(k)]
            total = sum(lengths)
            scale = ell * (1.0 - 1e-9) / total
            lengths = [scale * v for v in lengths]
            gaps = sorted(rng.uniform(a, b - ell) for _ in range(k))
            U = []
            ok = True
            cur = a
            for g, ln in zip(gaps, lengths):
                c = max(cur, g)
                d = c + ln
                if d > b:
                    ok = False
                    break
                U.append((c, d))
                cur = d
            if not ok or not U:
                continue
            v = abs(charge.eval(U))
            if v > best:
                best = v
        out.append((ell, best))
    return out


def _containing_sup(charge: IntervalCharge, y: float, r: float,
                    host: tuple) -> float:
    """Sampled sup of |charge(I)| over intervals I containing y of width <= r."""
    a, b = host
    worst = 0.0
    for frac in (1.0, 0.75, 0.5, 0.25, 0.125):
        w = r * frac
        for t in np.linspace(0.0, 1.0, 9):
            c = y - w * float(t)
            d = c + w
            c, d = max(a, c), min(b, d)
            if not (c <= y <= d) or d <= c:
                continue
            v = abs(charge.eval_one(c, d))
            if v > worst:
                worst = v
    return worst


def positivize_gauge(gauge: Gauge, G: IntervalCharge, tau: float) -> Gauge:
    """Positive gauge equal to the input off its zero set.

    At the j-th zero point the new width r_j is the largest dyadic radius
    such that every sampled containing interval of width <= r_j has
    |G| below 2**-(j+1) * tau.  Discarding pairs tagged at zero points from
    any partition fine for the result leaves a family whose uncovered part
    has G-value < tau (at most two pairs share a tag, and the budgets are
    geometric).
    """
    if not (tau > 0.0):
        raise ValueError(f"tau {tau!r} must be positive")
    if not gauge.zero_set:
        return gauge
    a, b = gauge.host
    L = b - a
    widths = {}
    for j, y in enumerate(gauge.zero_set, start=1):
        budget = tau * 2.0 ** -(j + 1) / 2.0
        r = None
        k = 0
        while k <= 50:
            cand = L * 2.0 ** -k
            if _containing_sup(G, y, cand, (a, b)) < budget:
                r = cand
                break
            k += 1
        if r is None:
            raise ContinuityBudgetFail(
                f"no containing-interval width at {y!r} meets budget {budget:.3e}")
        widths[float(y)] = r

    def fn(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape)
        off = ~np.isin(xs, list(widths))
        out[off] = _eval_points(gauge.fn, xs[off], gauge._raised)
        for y, w in widths.items():
            out[xs == y] = w
        return out

    return Gauge(a, b, fn, (), name=gauge.name + "+pos")


def full_family_integrate(f, G: IntervalCharge, gauge_schedule,
                          eps: float, tau_schedule=None, *,
                          vectorized: bool = False, max_depth: int = 64,
                          max_nodes: int = 4_000_000) -> HKResult:
    """Certified integral through (G, tau)-full fine families.

    Families are built by howard_cousin_family: fine, tags off the gauge's
    zero set, uncovered remainder with |G| < tau.  Two independent builds
    (left/right seeds, carve budget order flipped) must agree within eps,
    else CauchyFail carrying the (tau, sum) rows, which the result also
    carries as ``partial_sums``; each build bisects its segments in one
    ``cousin_partition`` call, and the right seed takes the segments it
    shares with the left one from the left seed's pass.  ``tau_schedule`` is read as in hkp_integrate: None for
    eps/4, a number, an eps -> tau callable, or a list of budgets (the left
    seed is built at each).
    The value is the midpoint of the two family sums; against a partition
    integral it can differ by the mass G assigns to the uncovered part,
    which the equivalence theorem bounds at the 3-epsilon scale.
    ``vectorized`` has no effect: ``riemann_sum`` decides how to call f.
    """
    sched = as_schedule(gauge_schedule)
    taus = _tau_list(tau_schedule, eps)
    gauge = sched.gauge(eps)

    def build(tau, tag_order, zero_order):
        return howard_cousin_family(gauge.host, gauge, G, tau,
                                    tag_order=tag_order, zero_order=zero_order,
                                    max_depth=max_depth, max_nodes=max_nodes)

    return _certify(build, lambda fc: riemann_sum(f, fc.family), eps, taus,
                    gauge.name, lambda fc: fc.family.n)
