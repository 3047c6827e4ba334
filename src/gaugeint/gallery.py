"""Reference currents and test functions used across the test suite and CLI.

Four geometric families (an oscillating two-curves pair, shrinking circles,
Cantor-set rectangles, a zigzag staircase) and three classical scalar
functions (the x^2 sin(x^-2) primitive pair, a finite Dirichlet indicator,
the Cantor-Lebesgue staircase function).  Everything here is deterministic:
geometry lands on dyadic or otherwise exactly representable coordinates
wherever a downstream check relies on exact arithmetic, and no constructor
consumes randomness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SpecOutOfRange
from .hk_core import Gauge, PrimitiveControl, as_schedule
from .currents1d import Curve, Current1D, restrict

__all__ = [
    "square_sine",
    "square_sine_prime",
    "square_sine_pair",
    "two_curves",
    "unit_circle",
    "circles_current",
    "cantor_squares",
    "zigzag_staircase",
    "devil_staircase",
    "dirichlet",
]


# ---------------------------------------------------------------------------
# the oscillating primitive pair

def square_sine(x):
    """F(x) = x^2 sin(x^-2) extended by F(0) = 0; accepts scalars or arrays."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    nz = xs != 0.0
    xi = xs[nz]
    out[nz] = xi * xi * np.sin(xi ** -2.0)
    return float(out) if np.ndim(x) == 0 else out


def square_sine_prime(x):
    """F'(x) = 2x sin(x^-2) - 2x^-1 cos(x^-2) for x != 0, and 0 at x = 0.

    The value at 0 is a placeholder: F is not differentiable there, which is
    the whole point of the pair.  Callers route x = 0 through an exceptional
    set instead of evaluating this.
    """
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    nz = xs != 0.0
    xi = xs[nz]
    v = xi ** -2.0
    out[nz] = 2.0 * xi * np.sin(v) - 2.0 * np.cos(v) / xi
    return float(out) if np.ndim(x) == 0 else out


def square_sine_pair() -> dict:
    """The pair (F, F') with its exceptional point and exact endpoint value."""
    return {
        "F": square_sine,
        "Fprime": square_sine_prime,
        "exceptional": (0.0,),
        "host": (0.0, 1.0),
        "value": math.sin(1.0),
    }


# ---------------------------------------------------------------------------
# two-curves pair

def _prime_roots(t_min: float) -> np.ndarray:
    """Zeros of F' in [t_min, 1), ascending.

    Substituting v = t^-2 turns 2t sin v - 2 cos(v)/t = 0 into tan v = v,
    one root per interval (k pi, (k+1) pi).  Bisection on the continuous
    surrogate g(v) = sin v - v cos v keeps every step bracketed.
    """
    v_max = t_min ** -2.0
    k_max = int(v_max / math.pi)
    if k_max < 1:
        raise SpecOutOfRange(f"cutoff {t_min!r} leaves no oscillation roots")
    k = np.arange(1, k_max + 1, dtype=float)
    lo = k * math.pi
    hi = (k + 1.0) * math.pi

    def g(v):
        return np.sin(v) - v * np.cos(v)

    glo = g(lo)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        left = (glo * gm) > 0.0
        lo = np.where(left, mid, lo)
        glo = np.where(left, gm, glo)
        hi = np.where(left, hi, mid)
    v = 0.5 * (lo + hi)
    t = v ** -0.5
    return np.sort(t[t >= t_min])


def _tent_vertices(feet: np.ndarray, signs: np.ndarray,
                   ramp_sign: float) -> np.ndarray:
    """Polyline through (foot, 0) points with one peak per gap, then a ramp
    of slope +-1 from the last foot to x = 1."""
    n = feet.shape[0]
    verts = np.zeros((2 * n, 2))
    verts[0:-1:2, 0] = feet
    mids = 0.5 * (feet[:-1] + feet[1:])
    half = 0.5 * (feet[1:] - feet[:-1])
    verts[1:-1:2, 0] = mids
    verts[1:-1:2, 1] = signs * half
    verts[-1] = (1.0, ramp_sign * (1.0 - feet[-1]))
    return verts


def two_curves(tolerance: float = 2e-2, *, t_min: Optional[float] = None) -> dict:
    """The oscillating tent-curve family over (0, 1].

    Feet sit at the zeros of F' (F(x) = x^2 sin(x^-2)); between consecutive
    feet each curve runs a tent of slope +-1, and from the last foot a ramp
    of slope +-1 reaches x = 1.  Four recombinations share the same feet:

    - ``gamma_plus``: every tent up, ramp up;
    - ``gamma_minus``: every tent down, ramp down;
    - ``gamma``: tent direction follows the sign of F' on the gap, so the
      function u below stays continuous along it;
    - ``gamma_tilde``: the reflection of ``gamma``.

    u(x1, x2) = sgn(x2) * F'(x1), extended by 0 on the x1-axis, restricts to
    +-F' along the tents.  The root list is truncated at ``t_min`` (default
    1e-2, or smaller if ``tolerance`` demands it); the discarded tail has
    arc length sqrt(2) * t_min, recorded as ``mass_deficit``.  Each curve's
    length is sqrt(2) - mass_deficit up to float dust, so it matches sqrt(2)
    within ``tolerance``.
    """
    if not (tolerance > 0.0):
        raise SpecOutOfRange(f"tolerance {tolerance!r} must be positive")
    if t_min is None:
        t_min = min(1e-2, tolerance / 2.0)
    feet = _prime_roots(t_min)
    t_first = float(feet[0])
    t_last = float(feet[-1])

    gap_mid = 0.5 * (feet[:-1] + feet[1:])
    gap_signs = np.sign(square_sine_prime(gap_mid))
    if np.any(gap_signs == 0.0) or np.any(gap_signs[1:] == gap_signs[:-1]):
        raise SpecOutOfRange("oscillation signs failed to alternate")
    ramp_sign = float(np.sign(square_sine_prime(0.5 * (t_last + 1.0))))

    ones = np.ones(feet.shape[0] - 1)

    def build(signs, ramp) -> Current1D:
        curve = Curve(_tent_vertices(feet, signs, ramp))
        return Current1D([(curve, 1)])

    gamma_plus = build(ones, 1.0)
    gamma_minus = build(-ones, -1.0)
    gamma = build(gap_signs, ramp_sign)
    gamma_tilde = build(-gap_signs, -ramp_sign)

    def u(p):
        P = np.asarray(p, dtype=float)
        if P.ndim == 1:
            return float(np.sign(P[1]) * square_sine_prime(P[0]))
        return np.sign(P[:, 1]) * square_sine_prime(P[:, 0])

    # Arc length to abscissa: every recombination has |slope| = 1, so
    # x(s) = t_first + s / sqrt(2) on each of the four curves.
    rt2 = math.sqrt(2.0)

    def t_of_s(s):
        return t_first + np.asarray(s, dtype=float) / rt2

    def s_of_t(t):
        return (np.asarray(t, dtype=float) - t_first) * rt2

    def hump_gauge(frac: float = 0.1, cap: float = 0.05):
        """Arc gauge resolving the oscillation humps, vanishing at arc 0.

        Consecutive zeros of F' sit about (pi/2) t^3 apart, so a width
        proportional to t(s)^3 keeps a bounded number of tags per hump.
        The zero at the curve start lets the carve stage drop a controlled
        neighborhood of the truncation point.
        """
        def build(ci: int, curve: Curve) -> Gauge:
            def fn(ss):
                ss = np.asarray(ss, dtype=float)
                t = t_of_s(ss)
                return np.where(ss == 0.0, 0.0,
                                np.minimum(cap, frac * rt2 * 0.5 * math.pi * t ** 3))

            return Gauge(0.0, curve.length, fn, (0.0,), name=f"hump[{frac!r}]")

        return build

    return {
        "gamma_plus": gamma_plus,
        "gamma_minus": gamma_minus,
        "gamma": gamma,
        "gamma_tilde": gamma_tilde,
        "u": u,
        "feet": feet,
        "t_min": t_min,
        "t_first": t_first,
        "t_last": t_last,
        "mass_deficit": rt2 * t_first,
        "t_of_s": t_of_s,
        "s_of_t": s_of_t,
        "hump_gauge": hump_gauge,
    }


# ---------------------------------------------------------------------------
# circles

def _circle_vertices(center, radius: float, segments: int,
                     start_angle: float = 0.0) -> np.ndarray:
    """Closed polygonal circle; cardinal vertices are forced onto the exact
    axis-aligned points so restrictions cut there without rounding."""
    cx, cy = float(center[0]), float(center[1])
    n = int(segments)
    if n < 4 or n % 4:
        raise SpecOutOfRange(f"segment count {segments!r} must be a multiple of 4")
    th = start_angle + 2.0 * math.pi * np.arange(n + 1) / n
    V = np.column_stack([cx + radius * np.cos(th), cy + radius * np.sin(th)])
    quarter = n // 4
    # Which cardinal sits at index 0 depends on the start angle.
    shift = int(round(start_angle / (0.5 * math.pi)))
    cardinal = [(cx + radius, cy), (cx, cy + radius),
                (cx - radius, cy), (cx, cy - radius)]
    for i in range(4):
        V[i * quarter] = cardinal[(i + shift) % 4]
    V[n] = V[0]
    return V


def unit_circle(segments: int = 1024, *, radius: float = 1.0,
                center=(0.0, 0.0)) -> Current1D:
    """Positively oriented polygonal circle starting at the rightmost point."""
    return Current1D([(Curve(_circle_vertices(center, radius, segments),
                             closed=True), 1)])


def circles_current(J: int = 8, *, segments: int = 1024) -> dict:
    """Shrinking circles accumulating at the origin.

    C_j is centered at (2^-j, 0) with radius 3^-(j+1), j = 1..J, positively
    oriented, starting at its bottom point so the right half [bottom -> top]
    is a single arc interval.  f = x2 / r_j on C_j takes the exact values
    -1 and +1 at the bottom and top cardinal vertices; S_j is the right-half
    piece, whose boundary pairing with f is exactly 2 however small the
    circle.  The origin carries no arc: total mass near it shrinks linearly.
    """
    if J < 1:
        raise SpecOutOfRange(f"circle count {J!r} must be at least 1")
    centers = np.array([2.0 ** -j for j in range(1, J + 1)])
    radii = np.array([3.0 ** -(j + 1) for j in range(1, J + 1)])

    components = []
    for c, r in zip(centers, radii):
        components.append((Curve(_circle_vertices((c, 0.0), r, segments,
                                                  start_angle=-0.5 * math.pi),
                                 closed=True), 1))
    T = Current1D(components)

    def f(p):
        P = np.asarray(p, dtype=float)
        single = P.ndim == 1
        if single:
            P = P[None, :]
        d = np.abs(np.hypot(P[:, 0, None] - centers[None, :],
                            P[:, 1, None]) - radii[None, :])
        j = np.argmin(d, axis=1)
        vals = P[:, 1] / radii[j]
        return float(vals[0]) if single else vals

    halves = []
    for ci in range(J):
        curve = T.components[ci][0]
        top = curve.cum[segments // 2]
        halves.append(restrict(T, [(ci, 0.0, float(top), 1)]))

    return {
        "T": T,
        "f": f,
        "S": halves,
        "centers": centers,
        "radii": radii,
    }


# ---------------------------------------------------------------------------
# Cantor rectangles

def cantor_squares(k_max: int = 6, heights: Optional[Sequence[float]] = None) -> dict:
    """Rectangle boundaries erected over the removed middle intervals of a
    fat Cantor set.

    Level k removes the open middle interval of length 4^-k from each of the
    2^(k-1) surviving intervals; all endpoints are dyadic, hence exact.  Over
    a removed interval (a, b) at level k sits the positively oriented
    boundary of [a, b] x [0, h_k].  The chain of all boundaries is a cycle:
    its boundary is the zero current.  Default heights h_k = 4^-k keep the
    total mass summable however far the construction runs.
    """
    if k_max < 1:
        raise SpecOutOfRange(f"depth {k_max!r} must be at least 1")
    if heights is None:
        hs = [4.0 ** -k for k in range(1, k_max + 1)]
    else:
        hs = [float(h) for h in heights]
        if len(hs) < k_max:
            raise SpecOutOfRange(
                f"need {k_max} heights, got {len(hs)}")
        if any(not (h > 0.0) for h in hs):
            raise SpecOutOfRange("heights must be positive")

    remaining = [(0.0, 1.0)]
    removed = []       # (level, a, b)
    for k in range(1, k_max + 1):
        half = 0.5 * 4.0 ** -k
        nxt = []
        for (a, b) in remaining:
            mid = 0.5 * (a + b)
            removed.append((k, mid - half, mid + half))
            nxt.append((a, mid - half))
            nxt.append((mid + half, b))
        remaining = nxt

    components = []
    for (k, a, b) in removed:
        h = hs[k - 1]
        V = np.array([(a, 0.0), (b, 0.0), (b, h), (a, h), (a, 0.0)])
        components.append((Curve(V, closed=True), 1))
    T = Current1D(components)

    remaining_length = math.fsum(b - a for (a, b) in remaining)
    return {
        "T": T,
        "removed": removed,
        "remaining": remaining,
        "heights": hs,
        "remaining_length": remaining_length,
    }


# ---------------------------------------------------------------------------
# zigzag staircase

def zigzag_staircase(j_max: int = 12) -> dict:
    """Axis-aligned staircase running from the origin outward.

    Step j (taken in the order j_max down to 1) is a horizontal tread of
    length 2^-j followed by a vertical riser of height 3^-j.  The empty
    partial sums place the first vertex exactly at (0, 0), standing in for
    the infinite tail of ever-smaller steps; the discarded tail mass is
    recorded.  h(p) = p[1] is the natural charge integrand: across a full
    step its increment is the riser height 3^-j while the step's length is
    2^-j + 3^-j, so increment-to-length ratios die out toward the origin
    along single subarcs, yet a two-fragment piece pairing a short arc at
    the origin with a distant riser keeps the ratio near 1.
    """
    if j_max < 1:
        raise SpecOutOfRange(f"step count {j_max!r} must be at least 1")
    verts = [(0.0, 0.0)]
    X = 0.0
    Y = 0.0
    steps = []
    for j in range(j_max, 0, -1):
        X += 2.0 ** -j
        verts.append((X, Y))
        Y += 3.0 ** -j
        verts.append((X, Y))
        steps.append(j)
    curve = Curve(np.array(verts))
    T = Current1D([(curve, 1)])

    # Arc spans of each step, inner to outer: vertex i = 1 + 2*(position).
    spans = []
    cum = curve.cum
    for i, j in enumerate(steps):
        s0 = float(cum[2 * i])
        s1 = float(cum[2 * i + 1])
        s2 = float(cum[2 * i + 2])
        spans.append({"j": j, "tread": (s0, s1), "riser": (s1, s2)})

    def h(p):
        P = np.asarray(p, dtype=float)
        if P.ndim == 1:
            return float(P[1])
        return P[:, 1]

    tail = math.fsum(2.0 ** -j + 3.0 ** -j for j in range(j_max + 1, j_max + 60))
    return {
        "T": T,
        "h": h,
        "steps": spans,
        "mass": float(curve.length),
        "tail_deficit": tail,
    }


# ---------------------------------------------------------------------------
# scalar staircase and indicator functions

def devil_staircase(levels: int = 20) -> dict:
    """The Cantor-Lebesgue staircase, truncated to ``levels`` ternary digits.

    Values are dyadic rationals with ``levels`` bits: constant at scale
    3^-levels, continuous, with all increase concentrated on the Cantor set.
    ``level_points(k)`` lists both endpoints of the 2^k level-k Cantor
    intervals, the natural anchor set for absolute-continuity probes: a
    family reaching halfway into each interval from both ends collects the
    interval's entire rise, since nothing accrues across the middle gap.
    """
    if levels < 1 or levels > 48:
        raise SpecOutOfRange(f"digit count {levels!r} out of range")

    def fn(x):
        xs = np.asarray(x, dtype=float)
        single = xs.ndim == 0
        t = np.clip(np.atleast_1d(xs).astype(float), 0.0, 1.0)
        y = np.zeros_like(t)
        active = np.ones(t.shape, dtype=bool)
        w = 0.5
        for _ in range(levels):
            t = t * 3.0
            d = np.clip(np.floor(t), 0.0, 2.0)
            t = t - d
            y[active & (d == 2.0)] += w
            hit = active & (d == 1.0)
            y[hit] += w
            active = active & (d != 1.0)
            w *= 0.5
        return float(y[0]) if single else y.reshape(np.shape(x))

    def level_points(k: int) -> np.ndarray:
        if k < 0 or k > 20:
            raise SpecOutOfRange(f"level {k!r} out of range")
        idx = np.arange(2 ** k, dtype=np.int64)
        x = np.zeros(2 ** k)
        for i in range(k):
            bit = (idx >> (k - 1 - i)) & 1
            x += bit * 2.0 * 3.0 ** -(i + 1)
        return np.sort(np.concatenate([x, x + 3.0 ** -k]))

    return {
        "fn": fn,
        "level_points": level_points,
        "resolution": 2.0 ** -levels,
        "interval_length": 3.0 ** -levels,
    }


def dirichlet(q_max: int = 7) -> dict:
    """Indicator of the rationals in [0, 1] with denominator at most q_max.

    The point set is finite, so the indicator is Riemann-oblivious but
    gauge-integrable to 0: a gauge vanishing on the set carves the points
    away, every tag off the set contributes nothing, and the carve pairs
    themselves are shrunk by the integrand-weighted budget.  ``schedule``
    is ready to hand to the interval integrator; its control charge is the
    primitive of the integrand, which vanishes identically, so the carve
    windows are unconstrained by charge and only the weighted shrink acts.
    """
    if q_max < 1:
        raise SpecOutOfRange(f"denominator bound {q_max!r} must be at least 1")
    fracs = sorted({Fraction(p, q)
                    for q in range(1, q_max + 1)
                    for p in range(0, q + 1)})
    points = np.array([float(fr) for fr in fracs])

    def fn(x):
        xs = np.asarray(x, dtype=float)
        vals = np.isin(xs, points).astype(float)
        return float(vals) if np.ndim(x) == 0 else vals

    gap = float(np.min(np.diff(points)))
    cap = 0.45 * gap

    def build(eps: float) -> Gauge:
        def width(xs):
            xs = np.asarray(xs, dtype=float)
            d = np.min(np.abs(xs[..., None] - points), axis=-1)
            return np.minimum(cap, 0.5 * d)

        return Gauge(0.0, 1.0, width, tuple(points), name=f"dirichlet[{q_max}]")

    # one value per point, so a carve grid is one call
    null = PrimitiveControl(lambda x: np.zeros(np.shape(x)), name="null")
    schedule = as_schedule(build, control=null)
    return {
        "fn": fn,
        "points": points,
        "schedule": schedule,
    }
