"""The gauge-and-fullness integral on one-dimensional chains.

Riemann sums run over tagged piece families that are fine for a gauge and
whose uncovered remainder has control-charge value below tau.  Certification
compares sums across the tau schedule and across two independently seeded
constructions; the Cauchy gap is the spread of all recorded sums.  A failed
certification raises CauchyFail carrying the per-tau partial sums, which is
how non-integrable integrands are reported (the sums grow as the budget
shrinks instead of settling).

Integrands may be ambient point functions or ArcFunction objects giving the
integrand in arc-length coordinates per component; the latter is how
tangent-dependent integrands stay well defined at polyline vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .currents1d import (
    AmbientGauge,
    Curve,
    Current1D,
    Piece,
    PieceCharge,
    PieceFamily,
    _arc_gauges,
    abs_charge,
    howard_cousin_current,
    mass_charge,
    theta_charge,
    theta_u,
)
from .errors import (
    CauchyFail,
    ExceptionalTagEncountered,
    MonotonicityViolation,
    QuadratureUnstable,
)
from .hk_core import (
    Gauge,
    HKResult,
    Schedule,
    TaggedFamily1D,
    _certify,
    _checked_values,
    _eval_points,
    _integrand_values,
    _tau_list,
    as_schedule,
    ftc_gauge,
)
from .sums import compensated_sum, exact_sum

__all__ = [
    "ArcFunction",
    "hkp_riemann_sum",
    "hkp_integrate",
    "uniform_current_schedule",
    "arc_gauge_schedule",
    "piece_as_current",
    "indefinite_integral",
    "saks_henstock_hkp_audit",
    "monotone_convergence_harness",
    "lebesgue_compare",
    "ftc_verify",
    "FtcReport",
    "REPORT_COLUMNS",
    "REPORT_PREAMBLE",
]


# ---------------------------------------------------------------------------
# integrands


class ArcFunction:
    """Integrand given in arc-length coordinates, one map per component.

    fns[ci] is a vectorized map from arc coordinates on component ci to
    values.  Keeps tangent-dependent integrands single-valued at shared
    ambient points (vertices, crossings) where an ambient formula would be
    ambiguous.
    """

    def __init__(self, fns: dict, name: str = "arc-fn"):
        self.fns = dict(fns)
        self.name = name

    @classmethod
    def from_ambient(cls, T: Current1D, f: Callable, *,
                     name: str = "arc-fn") -> "ArcFunction":
        """f on ambient points, pulled back through each arc chart: the
        points come from one chart call and f is evaluated on them through
        ``_eval_points``."""
        fns = {}
        for ci, (curve, _m) in enumerate(T.components):
            fns[ci] = lambda ss, curve=curve: _eval_points(
                f, curve.point_at_many(ss))
        return cls(fns, name=name)

    @classmethod
    def tangential(cls, T: Current1D, Du: Callable, *,
                   name: str = "grad-dot-tangent") -> "ArcFunction":
        """x -> <Du(x), unit tangent> evaluated through the arc charts."""
        fns = {}
        for ci, (curve, _m) in enumerate(T.components):
            def fn(ss, curve=curve):
                ss = np.asarray(ss, dtype=float)
                pts = curve.point_at_many(ss)
                tans = curve.tangent_at_many(ss)
                grads = np.asarray(Du(pts), dtype=float)
                if grads.shape != pts.shape:
                    grads = np.array([np.asarray(Du(p), float) for p in pts])
                return np.sum(grads * tans, axis=1)
            fns[ci] = fn
        return cls(fns, name=name)

    @classmethod
    def tangential_fd(cls, T: Current1D, u: Callable, *,
                      rel_step: float = 1e-6,
                      name: str = "arc-fd") -> "ArcFunction":
        """Central arc-length differences of u along each component, used
        when no analytic gradient is available.

        Interior vertices (and the seam of a closed loop) are tangent kinks
        where u along the curve need not be differentiable, so the step
        shrinks near them: a window never reaches past 0.45 of the distance
        to the nearest vertex, floored at 2^-37 of the length.  Carve
        clearance keeps every evaluated point at least 2^-36 of the length
        away from a declared corner, so no window straddles a kink.
        """
        fns = {}
        for ci, (curve, _m) in enumerate(T.components):
            knots = np.asarray(curve.cum, dtype=float)
            h0 = rel_step * curve.length
            h_min = curve.length * 2.0 ** -37

            def fn(ss, curve=curve, knots=knots, h0=h0, h_min=h_min):
                ss_in = np.asarray(ss, dtype=float)
                flat = np.atleast_1d(ss_in).ravel()
                idx = np.searchsorted(knots, flat).clip(1, knots.shape[0] - 1)
                d = np.minimum(flat - knots[idx - 1], knots[idx] - flat)
                h = np.maximum(np.minimum(h0, 0.45 * np.abs(d)), h_min)
                lo = np.maximum(flat - h, 0.0)
                hi = np.minimum(flat + h, curve.length)
                ul = _eval_points(u, curve.point_at_many(lo))
                uh = _eval_points(u, curve.point_at_many(hi))
                out = (uh - ul) / (hi - lo)
                if ss_in.ndim == 0:
                    return float(out[0])
                return out.reshape(ss_in.shape)
            fns[ci] = fn
        return cls(fns, name=name)

    def eval_rows(self, family: PieceFamily) -> np.ndarray:
        out = np.empty(family.n, dtype=float)
        for c in np.unique(family.ci):
            rows = family.ci == c
            out[rows] = np.asarray(self.fns[int(c)](family.tag_s[rows]),
                                   dtype=float)
        return out


def _tag_values(f, family: PieceFamily) -> np.ndarray:
    if family.n == 0:
        return np.empty(0)
    if not isinstance(f, ArcFunction):
        return _integrand_values(f, family.tag_points)

    def one(i):
        # the row's map on a one-point array
        return np.asarray(f.fns[int(family.ci[i])](family.tag_s[i:i + 1]))[0]

    return _checked_values(lambda: f.eval_rows(family), one, family.tag_points,
                           "integrand undefined at tag")


def hkp_riemann_sum(f, family: PieceFamily) -> float:
    """Sum of f(tag) * piece mass over the family, correctly rounded.

    UndefinedTag, naming the first tag point, where f (or an ArcFunction's
    map) raises or is not finite."""
    if family.n == 0:
        return 0.0
    return compensated_sum(_tag_values(f, family) * family.masses)


# ---------------------------------------------------------------------------
# schedules on chains


def uniform_current_schedule(h) -> Schedule:
    """Constant ambient width h, or h(eps)."""
    def build(eps: float) -> AmbientGauge:
        w = float(h(eps)) if callable(h) else float(h)
        return AmbientGauge(fn=lambda P: np.full(np.shape(P)[:-1], w),
                            name=f"uniform[h={w!r}]")
    return Schedule(build)


def arc_gauge_schedule(builders: dict) -> Schedule:
    """Per-component interval gauges: builders[ci] is eps -> Gauge on [0, L].

    ``hkp_integrate`` calls each builder once per component and call."""
    def build(eps: float):
        return lambda ci, curve: builders[ci](eps)
    return Schedule(build)


# ---------------------------------------------------------------------------
# the integrator


def hkp_integrate(f, T: Current1D, G: PieceCharge, gauge_schedule,
                  eps: float, tau_schedule=None, *,
                  max_depth: int = 64,
                  max_nodes: int = 4_000_000) -> HKResult:
    """Certified integral of f over the chain T.

    For each tau in the schedule (largest to smallest) a fine (G, tau)-full
    family is built and summed; at the smallest tau a second family is built
    with flipped seeds (right-first bisection, reversed component and carve
    orders).  Every family with tau below the largest budget qualifies for
    the same certificate, so the certified gap is the spread of all recorded
    sums; CauchyFail carries the per-tau sums, whose growth as tau shrinks
    is the non-integrability diagnostic.

    Each component's arc gauge is pulled back once per call.
    ``hk_core._certify`` opens the seed stores.  In the one around the two
    seeds at the smallest tau, the right seed takes each component segment
    it shares with the left one from the left seed's bisection pass (see
    ``hk_core.cousin_partition``), bit for bit the families two lone
    ``howard_cousin_current`` builds give; each larger tau's left build
    gets a store of its own.
    """
    return _certify_each([f], T, G, gauge_schedule, eps, tau_schedule,
                         max_depth=max_depth, max_nodes=max_nodes)[0]


def _certify_each(fs: Sequence, T: Current1D, G: PieceCharge, gauge_schedule,
                  eps: float, tau_schedule=None, *, max_depth: int = 64,
                  max_nodes: int = 4_000_000) -> list:
    """``hkp_integrate`` of each integrand of fs, in order, on one build of
    the families.

    The families do not depend on the integrand, so each (tau, tag order,
    zero order) is built once, when the first integrand asks for it, and
    the later ones sum the same family: results and errors come as a loop
    of lone calls gives them.  The arc gauges are made once per (component,
    curve) (see ``currents1d._arc_gauges``).  Where a component's arc gauge
    carries its pair (F, F') (``ftc_verify``'s default gauges), ``_certify``
    audits the component's rows in arc coordinates against it, weighted by
    |multiplicity|, and the weighted sum is the family's audit (see
    ``hk_core._audit``).  The builds and arc gauges are dropped before the
    call leaves, also by an error, whose traceback keeps this frame.
    """
    taus = _tau_list(tau_schedule, eps)
    gauge = as_schedule(gauge_schedule).gauge(eps)
    name = gauge.name if isinstance(gauge, AmbientGauge) else "per-component"
    arc = _arc_gauges(gauge, T)
    builds: dict = {}

    def build(tau, tag_order, zero_order):
        key = (tau, tag_order, zero_order)
        if key in builds:
            return builds[key]
        fam = howard_cousin_current(T, arc, G, tau, tag_order=tag_order,
                                    zero_order=zero_order, max_depth=max_depth,
                                    max_nodes=max_nodes)
        # kept for the integrands after the first; a lone integrand lets
        # each tau's family go once the next is built
        if len(fs) > 1:
            builds[key] = fam
        return fam

    def parts(fam):
        out = []
        for ci, (curve, mult) in enumerate(T.components):
            g = arc(ci, curve)
            if g._ftc_pair:
                rows = fam.ci == ci
                out.append((g, float(abs(mult)), TaggedFamily1D(
                    (0.0, curve.length), fam.s1[rows], fam.s2[rows],
                    fam.tag_s[rows], validate=False)))
        return out

    try:
        return [_certify(build, lambda fam: hkp_riemann_sum(f, fam), eps,
                         taus, name, lambda fam: fam.n, parts=parts)
                for f in fs]
    finally:
        # _certify's frame in the traceback holds build, which sees arc
        builds.clear()
        arc = None


# ---------------------------------------------------------------------------
# pieces as chains, indefinite integrals


def piece_as_current(S: Piece) -> Current1D:
    """The sub-chain carried by a piece; fragments become open curves
    (or the whole closed curve when a fragment is the full loop)."""
    comps = []
    for ci, s1, s2, m in S.fragments:
        curve = S.parent.components[ci][0]
        if curve.closed and s1 == 0.0 and s2 == curve.length:
            comps.append((curve, m))
            continue
        inner = curve.cum[(curve.cum > s1) & (curve.cum < s2)]
        ss = np.concatenate([[s1], inner, [s2]])
        verts = curve.point_at_many(ss)
        comps.append((Curve(verts, source=curve.source), m))
    if not comps:
        raise ValueError("empty piece has no carrier chain")
    return Current1D(comps)


def _on_piece(f, S: Piece):
    """Transport an arc-coordinate integrand to the charts of the sub-chain
    of S: fragment j of S starts at parent arc s1, so its own chart is the
    parent chart shifted by s1.  Ambient integrands pass through."""
    if not isinstance(f, ArcFunction):
        return f
    fns = {}
    for j, (ci, s1, _s2, _m) in enumerate(S.fragments):
        fns[j] = (lambda ss, fn=f.fns[ci], s1=s1:
                  np.asarray(fn(np.asarray(ss, dtype=float) + s1)))
    return ArcFunction(fns, name=f.name + "|piece")


def indefinite_integral(f, T: Current1D, gauge_schedule, eps: float, *,
                        G: Optional[PieceCharge] = None,
                        base_result: Optional[HKResult] = None,
                        pieces: Sequence[Piece] = ()) -> PieceCharge:
    """The charge S -> certified integral of f over S, with caching.

    Each supplied split piece is integrated up front together with its
    complement, and additivity |F(S) + F(T-S) - F(T)| is checked against
    the sum of the three certificates.  Ambient gauge schedules only: the
    sub-chains of pieces re-index components.
    """
    G = G if G is not None else mass_charge()
    whole = base_result if base_result is not None else \
        hkp_integrate(f, T, G, gauge_schedule, eps)
    cache: dict = {"full": whole}

    def key(S: Piece):
        return S.fragments

    def charge_fn(S: Piece) -> float:
        k = key(S)
        if k not in cache:
            if not S.fragments:
                return 0.0
            cache[k] = hkp_integrate(_on_piece(f, S), piece_as_current(S), G,
                                     gauge_schedule, eps)
        return cache[k].value

    charge = PieceCharge(charge_fn, frozenset({"additive", "continuous"}),
                         name="indefinite-integral")
    for S in pieces:
        comp = S.complement()
        vS, vC = charge_fn(S), charge_fn(comp)
        budget = (whole.epsilon + eps * 2.0 +
                  cache[key(S)].epsilon + cache[key(comp)].epsilon)
        if abs(vS + vC - whole.value) > budget:
            raise CauchyFail(vS + vC, whole.value, budget,
                             detail="indefinite integral not additive on split")
    charge.results = cache  # type: ignore[attr-defined]
    return charge


# ---------------------------------------------------------------------------
# audits and harnesses


def saks_henstock_hkp_audit(f, F: PieceCharge, family: PieceFamily) -> float:
    """Sum of |F(S) - f(tag) * M(S)| over the family."""
    if family.n == 0:
        return 0.0
    vals = _tag_values(f, family)
    Fv = F.on_family(family)
    return compensated_sum(np.abs(Fv - vals * family.masses))


def monotone_convergence_harness(f_seq: Sequence, T: Current1D,
                                 G: PieceCharge, gauge_schedule, eps: float,
                                 *, tau_schedule=None,
                                 check_points: int = 64) -> list:
    """Integrate a nondecreasing sequence; order is checked before and after.

    Pointwise monotonicity is sampled at arc-uniform support points (tiny
    offsets keep samples off carve points); certified values must be
    nondecreasing within the pairwise certificates.  Returns the HKResult
    list; the last value is the limit estimate.  The families do not depend
    on the integrand, so one family pair (one per tau) serves the whole
    sequence; each result equals a lone ``hkp_integrate`` call's.
    """
    samples = []
    for ci, (curve, _m) in enumerate(T.components):
        ss = np.linspace(0.0, curve.length, check_points // len(T.components) + 2)
        ss = ss[1:-1] + 1e-7 * curve.length
        samples.append((ci, ss[ss < curve.length], curve.point_at_many(ss[ss < curve.length])))
    for fa, fb in zip(f_seq, f_seq[1:]):
        for ci, ss, pts in samples:
            va = _sample_values(fa, ci, ss, pts)
            vb = _sample_values(fb, ci, ss, pts)
            if np.any(vb < va):
                i = int(np.argmax(vb < va))
                raise MonotonicityViolation(
                    f"sequence decreases at sampled point {pts[i]!r}")
    results = _certify_each(f_seq, T, G, gauge_schedule, eps,
                            tau_schedule) if f_seq else []
    for ra, rb in zip(results, results[1:]):
        if rb.value < ra.value - (ra.epsilon + rb.epsilon + eps):
            raise MonotonicityViolation(
                f"certified integrals decrease: {ra.value!r} -> {rb.value!r}")
    return results


def _sample_values(f, ci: int, ss: np.ndarray, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, ArcFunction):
        return np.asarray(f.fns[ci](ss), dtype=float)
    return _eval_points(f, pts)


def lebesgue_compare(f, T: Current1D, *, hkp_result: Optional[HKResult] = None,
                     G: Optional[PieceCharge] = None, gauge_schedule=None,
                     eps: float = 1e-3, tol: float = 1e-8,
                     max_refine: int = 18) -> tuple:
    """Midpoint quadrature of f against the length measure, refined until
    stable, compared with the certified integral.

    Each refinement halves every polyline subsegment; stability means two
    consecutive quadratures differ by at most tol (Richardson-style
    doubling).  QuadratureUnstable carries the full value sequence when the
    schedule ends without settling, which is the desk signature of a
    non-summable integrand.
    """
    values = []
    prev = None
    for r in range(max_refine):
        parts = []
        for ci, (curve, mult) in enumerate(T.components):
            n = 2 ** r
            base = np.repeat(curve.cum[:-1], n)
            step = np.repeat(curve.seg_len, n) / n
            offs = np.tile(np.arange(n, dtype=float), curve.n_segments)
            mids = base + (offs + 0.5) * step
            vals = _sample_values(f, ci, mids, curve.point_at_many(mids))
            parts.append(mult * compensated_sum(vals * step))
        q = exact_sum(parts)
        values.append(q)
        if prev is not None and abs(q - prev) <= tol:
            break
        prev = q
    else:
        raise QuadratureUnstable(values,
                                 detail="no two consecutive refinements agree")
    lebesgue_value = values[-1]
    if hkp_result is None:
        sched = gauge_schedule if gauge_schedule is not None else \
            uniform_current_schedule(lambda e: max(e, 1e-3) * T.diameter())
        hkp_result = hkp_integrate(f, T, G or mass_charge(), sched, eps)
    return (lebesgue_value, hkp_result)


# ---------------------------------------------------------------------------
# the FTC verifier


REPORT_COLUMNS = ("epsilon", "tau", "gauge_id", "sum1", "sum2", "gap",
                  "certified_value", "lhs", "discrepancy")
REPORT_PREAMBLE = "# families subordinate to the input chain decomposition"


@dataclass
class FtcReport:
    """Boundary pairing vs certified integral, one row per epsilon."""

    lhs: float
    rows: list = field(default_factory=list)

    def max_discrepancy(self) -> float:
        return max(r["discrepancy"] for r in self.rows)

    def to_csv(self) -> str:
        """Line-delimited report; floats rendered to round-trip exactly."""
        def cell(v):
            if v is None or v == "":
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        lines = [REPORT_PREAMBLE, ",".join(REPORT_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(cell(row.get(c)) for c in REPORT_COLUMNS))
        return "\n".join(lines) + "\n"


def ftc_verify(u: Callable, T: Current1D, eps_schedule: Sequence[float], *,
               Du: Optional[Callable] = None,
               f_arc: Optional[ArcFunction] = None,
               exceptional: Sequence = (),
               u_batch: Optional[Callable] = None,
               control: Optional[PieceCharge] = None,
               gauge_schedule=None, tau_schedule=None,
               corner_mode: str = "exceptional") -> FtcReport:
    """Check the boundary pairing of u against the certified integral of
    the tangential derivative, per epsilon.

    lhs is the boundary of T paired with u.  The integrand is
    <Du, tangent> through the arc charts; f_arc supplies it directly in arc
    coordinates, else Du is paired with the polyline tangent, else finite
    differences of u stand in.  The default gauge per component realizes
    the differentiability estimate of the composed primitive u on the arc,
    vanishing at declared exceptional points (so no tag ever lands there:
    ExceptionalTagEncountered if a supplied gauge breaks this).  The
    composed primitive kinks at polyline corners for generic u, so with
    corner_mode="exceptional" interior vertices are declared exceptional
    too; the dyadic carve budgets halve per point, which suits a handful
    of corners.  Pass corner_mode="smooth" when u composed with the
    parameterization is differentiable across vertices (adapted pairs).
    The default gauges carry their pair (u on the arc, the integrand's
    map), so each family is audited against it (see ``_certify_each``):
    AuditFail where the audit reaches eps/2.  The default control charge
    is |Theta_u|.
    """
    if corner_mode not in ("exceptional", "smooth"):
        raise ValueError(f"unknown corner_mode {corner_mode!r}")
    lhs = theta_u(u, T.full_piece())
    if f_arc is not None:
        f = f_arc
    elif Du is not None:
        f = ArcFunction.tangential(T, Du)
    else:
        f = ArcFunction.tangential_fd(T, u)
    G = control if control is not None else \
        abs_charge(theta_charge(u, u_batch=u_batch, continuous=True))
    ub = u_batch if u_batch is not None else (lambda P: _eval_points(u, P))

    snap = 1e-9 * T.diameter()
    exc_arc = {}
    for ci, (curve, _m) in enumerate(T.components):
        hits = []
        for p in exceptional:
            dist, s = curve.nearest(np.asarray(p, dtype=float))
            if dist <= snap:
                hits.append(s)
        if corner_mode == "exceptional":
            hits.extend(float(s) for s in curve.cum[1:-1]
                        if not any(abs(s - h) <= snap for h in hits))
        exc_arc[ci] = tuple(hits)

    if gauge_schedule is None:
        def build(eps: float):
            def per_comp(ci: int, curve: Curve) -> Gauge:
                def prim(ss):
                    ss = np.asarray(ss, dtype=float)
                    vals = np.asarray(ub(curve.point_at_many(ss.ravel())),
                                      dtype=float)
                    return vals.reshape(ss.shape)
                return ftc_gauge(prim, f.fns[ci], exc_arc[ci], eps,
                                 (0.0, curve.length), zero_at_exceptional=True,
                                 name=f"ftc-arc[{ci}]")
            return per_comp
        sched = Schedule(build)
    else:
        sched = as_schedule(gauge_schedule)
        if exceptional:
            for eps in eps_schedule:
                arc = _arc_gauges(sched.gauge(eps), T)
                for ci, (curve, _m) in enumerate(T.components):
                    for s in exc_arc[ci]:
                        if arc(ci, curve)(s) != 0.0:
                            raise ExceptionalTagEncountered(
                                f"gauge positive at exceptional point "
                                f"(component {ci}, arc {s!r})")

    report = FtcReport(lhs=lhs)
    for eps in eps_schedule:
        res = hkp_integrate(f, T, G, sched, float(eps),
                            tau_schedule=tau_schedule)
        c = res.certificate
        report.rows.append({
            "epsilon": float(eps),
            "tau": c.tau,
            "gauge_id": c.gauge_name,
            "sum1": c.sum1,
            "sum2": c.sum2,
            "gap": c.gap,
            "certified_value": res.value,
            "lhs": lhs,
            "discrepancy": abs(lhs - res.value),
        })
    return report
