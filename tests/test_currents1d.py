import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeint import (
    AmbientGauge,
    ArcFunction,
    Curve,
    Current1D,
    NoPieces,
    Piece,
    PieceCharge,
    PieceFamily,
    PointOffSupport,
    SpecOutOfRange,
    UndefinedAtAtom,
    abs_charge,
    boundary,
    derivate,
    dumps_current,
    gallery,
    howard_cousin_current,
    is_piece,
    lambda_f,
    lambda_charge,
    lambda_f_charge,
    lambda_omega,
    load_current,
    loads_current,
    mass,
    mass_charge,
    mass_continuity_witness,
    pieces_at,
    restrict,
    restrict_halfplane,
    theta_charge,
    theta_u,
)


# ---------------------------------------------------------------------------
# curves and chains

def test_curve_length_345():
    c = Curve(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert c.length == 5.0
    assert np.array_equal(c.point_at(2.5), np.array([1.5, 2.0]))


def test_curve_closed_needs_repeated_vertex():
    with pytest.raises(ValueError):
        Curve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=True)


def test_curve_from_param_meets_chord_tolerance():
    tol = 1e-4
    arc = Curve.from_param(lambda t: (math.cos(t), math.sin(t)),
                           t0=0.0, t1=math.pi, tol=tol)
    assert arc.source == "param" and arc.source_tol == tol
    # every vertex lies on the unit circle, endpoints exactly as given
    assert np.allclose(np.linalg.norm(arc.vertices, axis=1), 1.0, atol=1e-15)
    assert np.array_equal(arc.vertices[0], [1.0, 0.0])
    assert np.array_equal(arc.vertices[-1], [math.cos(math.pi), math.sin(math.pi)])
    # sagitta of each chord is within tol, and the length approaches pi
    half = 0.5 * arc.seg_len
    assert np.all(1.0 - np.sqrt(1.0 - half ** 2) <= tol)
    assert 0.0 < math.pi - arc.length < 1e-3
    loop = Curve.from_param(lambda t: (math.cos(t), math.sin(t)),
                            t0=0.0, t1=2.0 * math.pi, closed=True, tol=1e-2)
    assert loop.closed and np.array_equal(loop.vertices[0], loop.vertices[-1])


def test_curve_nearest():
    c = Curve(np.array([[0.0, 0.0], [2.0, 0.0]]))
    dist, s = c.nearest(np.array([1.0, 0.5]))
    assert dist == 0.5
    assert s == 1.0


def test_chain_mass_weighted(segment345):
    doubled = Current1D([(segment345.components[0][0], 2)])
    assert doubled.mass() == 10.0
    assert mass(doubled) == 10.0


def test_boundary_atoms_cancel_on_abutting_segments():
    c1 = Curve(np.array([[0.0, 0.0], [1.0, 0.0]]))
    c2 = Curve(np.array([[1.0, 0.0], [2.0, 0.0]]))
    T = Current1D([(c1, 1), (c2, 1)])
    bnd = boundary(T)
    assert len(bnd) == 2
    assert bnd.mass() == 2.0
    assert sum(w for _p, w in bnd.atoms) == 0


def test_boundary_of_cycle_is_empty(unit_square):
    assert len(boundary(unit_square)) == 0


# ---------------------------------------------------------------------------
# pieces

def test_restrict_mass_inequalities(circle16):
    L = circle16.components[0][0].length
    S = restrict(circle16, [(0, 0.0, 0.5 * L, 1)])
    assert S.mass() <= circle16.mass()
    assert S.complement().mass() <= circle16.mass()
    assert is_piece(S, circle16)


def test_restrict_rejects_overfull():
    seg = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 2)])
    with pytest.raises(SpecOutOfRange):
        restrict(seg, [(0, 0.0, 1.0, 3)])
    # two overlapping unit fragments are fine under multiplicity 2
    S = restrict(seg, [(0, 0.0, 0.8, 1), (0, 0.2, 1.0, 1)])
    assert S.mass() == pytest.approx(1.6)


def test_restrict_rejects_out_of_range(segment345):
    with pytest.raises(SpecOutOfRange):
        restrict(segment345, [(0, 0.0, 6.0, 1)])
    with pytest.raises(SpecOutOfRange):
        restrict(segment345, [(1, 0.0, 1.0, 1)])


def test_complement_partitions_mass(unit_square):
    L = unit_square.components[0][0].length
    S = restrict(unit_square, [(0, 0.5, 1.25, 1)])
    assert S.mass() + S.complement().mass() == unit_square.mass()


def test_halfplane_restriction_cuts_at_crossings(unit_square):
    S = restrict_halfplane(unit_square, np.array([1.0, 0.0]), 0.5)
    # right half of the square boundary: two verticals halves + one side
    assert S.mass() == pytest.approx(2.0)
    assert is_piece(S, unit_square)


# ---------------------------------------------------------------------------
# charges: exact identities

def test_theta_u_additive(circle16):
    # interior cut values cancel; each part rounds once, so the telescoped
    # sum matches the whole to rounding (dyadic exactness is covered by the
    # staircase splitting test below)
    L = circle16.components[0][0].length
    u = lambda p: 2.0 * p[0] - 3.0 * p[1]
    cuts = [0.0, 0.3 * L, 0.7 * L, L]
    parts = [restrict(circle16, [(0, a, b, 1)])
             for a, b in zip(cuts, cuts[1:])]
    whole = restrict(circle16, [(0, 0.0, L, 1)])
    assert sum(theta_u(u, S) for S in parts) == pytest.approx(
        theta_u(u, whole), abs=1e-12)


def test_lambda_omega_axis_covector_recovers_displacement(segment345):
    # integral of a constant axis covector telescopes to the endpoint gap
    S = restrict(segment345, [(0, 1.0, 4.0, 1)])
    p1 = segment345.components[0][0].point_at(1.0)
    p2 = segment345.components[0][0].point_at(4.0)
    assert lambda_omega(np.array([1.0, 0.0]), S) == p2[0] - p1[0]
    assert lambda_omega(np.array([0.0, 1.0]), S) == p2[1] - p1[1]


def test_lambda_f_constant_is_mass(circle16):
    S = circle16.full_piece()
    assert lambda_f(lambda p: 1.0, S) == pytest.approx(circle16.mass(),
                                                       abs=1e-12)


def test_lambda_f_refines_to_line_integral(circle1024):
    # midpoint-rule oracle on the polyline edges, computed independently
    curve = circle1024.components[0][0]
    f = lambda p: p[0] * p[0]
    S = circle1024.full_piece()
    got = lambda_f(f, S)
    mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
    lens = np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1)
    want = float(np.sum(mids[:, 0] ** 2 * lens))
    assert got == pytest.approx(want, abs=1e-12)
    # and the polyline value sits near the smooth limit pi
    assert abs(got - math.pi) < 1e-4


def test_lambda_f_charge_matches_lambda_f(circle16):
    f = lambda p: p[0] + 2.0 * p[1]
    charge = lambda_f_charge(f)
    assert charge.name == "lambda-f" and "additive" in charge.traits
    S = restrict(circle16, [(0, 0.5, 2.5, 1)])
    assert charge(S) == lambda_f(f, S)
    charge.validate_on(circle16)


def test_lambda_charge_matches_lambda_omega(circle16):
    omega = lambda p: np.array([-p[1], p[0]])
    charge = lambda_charge(omega)
    assert charge.name == "lambda-omega" and "additive" in charge.traits
    S = restrict(circle16, [(0, 0.5, 2.5, 1)])
    assert charge(S) == lambda_omega(omega, S)
    charge.validate_on(circle16)


def test_mass_continuity_witness_tables_mass_and_boundary(segment345,
                                                           circle16):
    pieces = [restrict(segment345, [(0, 1.0, 1.0 + 2.0 ** -k, 1)])
              for k in range(4)]
    # subarcs of the segment: mass shrinks, two boundary atoms stay
    assert mass_continuity_witness(segment345, pieces) == \
        [(2.0 ** -k, 2.0) for k in range(4)]
    # a closed loop has no boundary
    assert mass_continuity_witness(circle16, [circle16.full_piece()]) == \
        [(circle16.mass(), 0.0)]


def test_theta_charge_on_closed_loop_vanishes(circle16):
    th = theta_charge(lambda p: p[0] * p[1])
    assert th(circle16.full_piece()) == 0.0


# ---------------------------------------------------------------------------
# local pieces

def test_pieces_at_diameter_contract(circle1024):
    x = circle1024.components[0][0].vertices[0]
    for delta in (0.3, 0.05, 0.01):
        for S in pieces_at(circle1024, x, delta):
            assert S.support_diameter() < delta
            assert S.is_indecomposable()


def test_pieces_at_off_support_raises(circle16):
    with pytest.raises(PointOffSupport):
        pieces_at(circle16, np.array([5.0, 5.0]), 0.1)


def test_pieces_at_near_but_off_returns_empty():
    cs = gallery.circles_current(J=20)
    # the origin is a limit of the rings but lies on none of them
    assert pieces_at(cs["T"], np.array([0.0, 0.0]), 1e-4) == []


def test_derivate_lipschitz_envelope_bound(circle1024):
    # u = x1 has |<Du, tangent>| <= 1 everywhere on the circle
    th = theta_charge(lambda p: p[0])
    x = circle1024.components[0][0].point_at(1.0)
    lo, hi = derivate(th, circle1024, x, [1e-1, 1e-2, 1e-3])
    assert -1.0 - 1e-6 <= lo <= hi <= 1.0 + 1e-6


def test_derivate_flat_function_pinches_to_zero(segment345):
    th = theta_charge(lambda p: 0.25)
    x = segment345.components[0][0].point_at(2.5)
    lo, hi = derivate(th, segment345, x, [1e-1, 1e-2, 1e-3])
    assert lo == hi == 0.0


def test_derivate_empty_schedule_and_no_pieces(circle16):
    th = theta_charge(lambda p: p[0])
    x = circle16.components[0][0].vertices[0]
    with pytest.raises(ValueError):
        derivate(th, circle16, x, [])
    cs = gallery.circles_current(J=20)
    with pytest.raises(NoPieces):
        derivate(theta_charge(lambda p: p[0]), cs["T"],
                 np.array([0.0, 0.0]), [1e-4])


# ---------------------------------------------------------------------------
# fine full families on chains

def test_howard_cousin_current_fine_and_full(circle16):
    G = mass_charge()
    tau = 0.01
    gauge = AmbientGauge(fn=lambda p: 0.05)
    fam = howard_cousin_current(circle16, gauge, G, tau)
    assert fam.is_fine(np.full(fam.n, 0.05), exact_diameter=True)
    # fullness: the uncovered remainder carries G-value below tau
    assert fam.remainder_value < tau
    covered = fam.body_mass()
    assert circle16.mass() - covered <= tau + 1e-12


def test_howard_cousin_current_rejects_unknown_zero_order(segment345):
    gauge = AmbientGauge(fn=lambda p: 0.7)
    with pytest.raises(ValueError, match="zero order"):
        howard_cousin_current(segment345, gauge, mass_charge(), 0.01,
                              zero_order="sideways")


def test_howard_cousin_current_respects_multiplicity(segment345):
    doubled = Current1D([(segment345.components[0][0], 2)])
    gauge = AmbientGauge(fn=lambda p: 0.7)
    fam = howard_cousin_current(doubled, gauge, mass_charge(), 0.01)
    assert set(np.unique(fam.m)) <= {1, 2}
    assert fam.body_mass() >= doubled.mass() - 0.01


# ---------------------------------------------------------------------------
# serialization

def test_dumps_loads_round_trip(two_curves_data):
    T = two_curves_data["gamma"]
    text = dumps_current(T)
    back = loads_current(text)
    assert len(back.components) == len(T.components)
    for (c1, m1), (c2, m2) in zip(T.components, back.components):
        assert m1 == m2
        assert c1.closed == c2.closed
        assert np.array_equal(c1.vertices, c2.vertices)


def test_save_load_file(tmp_path, circle16):
    path = tmp_path / "ring.cur"
    from gaugeint import save_current
    save_current(circle16, path)
    back = load_current(path)
    assert np.array_equal(back.components[0][0].vertices,
                          circle16.components[0][0].vertices)
    assert back.components[0][0].closed


# ---------------------------------------------------------------------------
# property: exact additivity on dyadic staircase chains

GRID = 2.0 ** -12


def _staircase(rng, y0):
    x = 0.0
    pts = [(x, y0)]
    for _ in range(rng.integers(2, 7)):
        x += float(rng.integers(1, 40)) * GRID
        pts.append((x, pts[-1][1]))
        pts.append((x, pts[-1][1] + float(rng.integers(-30, 40)) * GRID))
    V = np.array(pts)
    keep = np.ones(len(V), dtype=bool)
    keep[1:] = np.any(V[1:] != V[:-1], axis=1)
    return Curve(V[keep])


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_vertex_split_additivity_exact(seed):
    rng = np.random.default_rng(seed)
    comps = [(_staircase(rng, float(k)), int(rng.integers(1, 4)))
             for k in range(rng.integers(1, 4))]
    T = Current1D(comps)
    ci = int(rng.integers(0, len(comps)))
    curve, m = comps[ci]
    cut = float(rng.choice(curve.cum[1:-1])) if len(curve.cum) > 2 \
        else 0.5 * curve.length
    S1 = restrict(T, [(ci, 0.0, cut, m)])
    S2 = S1.complement()
    u = lambda p: 2.0 * p[0] - p[1] + 1.0
    omega = np.array([3.0, -2.0])
    full = T.full_piece()
    assert S1.mass() + S2.mass() == full.mass() == T.mass()
    assert theta_u(u, S1) + theta_u(u, S2) == theta_u(u, full)
    assert lambda_omega(omega, S1) + lambda_omega(omega, S2) == \
        lambda_omega(omega, full)
    assert is_piece(S1, T) and is_piece(S2, T)


# ---------------------------------------------------------------------------
# batched arc-chart paths against the per-point chart

def _three_component_chain():
    """Open polyline, closed heptagon and a multiplicity-2 polyline, with
    segment lengths whose arc coordinates are not short binary fractions."""
    t = np.linspace(0.0, 2.0 * math.pi, 8)
    hept = np.column_stack([0.7 * np.cos(t) + 3.0, 0.7 * np.sin(t)])
    hept[-1] = hept[0]
    return Current1D([
        (Curve(np.array([[0.0, 0.0], [0.3, 0.1], [0.7, -0.2], [1.1, 0.4]])), 1),
        (Curve(hept, closed=True), 1),
        (Curve(np.array([[-2.0, 0.0], [-1.5, 1.0 / 3.0], [-1.0, 0.2],
                         [-0.6, 0.5]])), 2),
    ])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _fragments(T):
    """Fragments from s = 0, to s = length, between exact vertex arc
    coordinates, inside one segment and across several, per component."""
    rows = []
    for ci, (curve, mult) in enumerate(T.components):
        c, L = curve.cum, curve.length
        rows += [(ci, 0.0, L, mult), (ci, c[1], c[3], 1), (ci, 0.05, c[2], 1),
                 (ci, c[1], L, mult), (ci, 0.1, 0.2, 1), (ci, 0.0, c[1], 1),
                 (ci, 0.5 * (c[0] + c[1]), 0.25 * c[1] + 0.75 * c[2], mult)]
    return rows


def _covered_ref(curve, s1, s2):
    """The per-segment loop the batched paths replace."""
    k1 = int(curve._seg_index(np.array([s1]))[0])
    k2 = int(curve._seg_index(np.array([s2]))[0])
    if not (s2 > curve.cum[k2] or k2 == k1):
        k2 -= 1
    for k in range(k1, k2 + 1):
        lo = max(s1, float(curve.cum[k]))
        hi = min(s2, float(curve.cum[k + 1]))
        if hi > lo:
            yield lo, hi


def test_piece_family_tag_points_match_point_at():
    T = _three_component_chain()
    rows = []
    for ci, (curve, mult) in enumerate(T.components):
        # vertices at even cut indices, segment midpoints at odd ones
        cuts = np.sort(np.concatenate([curve.cum, 0.5 * (curve.cum[:-1]
                                                         + curve.cum[1:])]))
        for j, (s1, s2) in enumerate(zip(cuts[:-1], cuts[1:])):
            tag = s1 if j % 2 == 0 else (
                s2 if s2 == curve.length else 0.5 * (s1 + s2))
            rows.append((ci, s1, s2, mult, tag))
    # interleave the components; tags hit 0, the length and every vertex
    rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    ci, s1, s2, m, tag_s = (np.array(col) for col in zip(*rows))
    fam = PieceFamily(T, ci, s1, s2, m, tag_s)
    ref = np.vstack([T.components[c][0].point_at(s) for c, s in zip(ci, tag_s)])
    assert np.any(np.diff(ci) < 0)
    for c, (curve, _m) in enumerate(T.components):
        assert set(curve.cum.tolist()) <= set(tag_s[ci == c].tolist())
    assert _bits(fam.tag_points) == _bits(ref)


def test_piece_boundary_matches_point_at():
    from gaugeint.currents1d import ZeroCurrent
    T = _three_component_chain()
    frs = _fragments(T)
    pieces = [Piece(T, [row]) for row in frs]
    pieces.append(Piece(T, frs, validate=False))
    for S in pieces:
        atoms = []
        for ci, s1, s2, m in S.fragments:
            curve = T.components[ci][0]
            if not (curve.closed and s1 == 0.0 and s2 == curve.length):
                atoms += [(curve.point_at(s2), m), (curve.point_at(s1), -m)]
        assert S.boundary().atoms == ZeroCurrent(atoms).atoms
    assert len(pieces[-1].boundary()) > 0


def test_lambda_omega_and_lambda_f_match_point_at():
    T = _three_component_chain()
    omega_const = np.array([0.3, -1.7])
    seen = []

    def omega(p):
        seen.append(p.copy())
        return np.array([math.sin(p[0]), 0.0 if p[1] < 0.0 else p[0] * p[1]])

    def f(p):
        return math.exp(p[0]) - p[1] ** 3

    for row in _fragments(T):
        S = Piece(T, [row])
        ci, s1, s2, m = S.fragments[0]
        curve = T.components[ci][0]
        segs = list(_covered_ref(curve, s1, s2))
        mids = [curve.point_at(0.5 * (lo + hi)) for lo, hi in segs]
        for om, w_of in ((omega_const, lambda p: omega_const), (omega, omega)):
            terms = []
            for (lo, hi), pm in zip(segs, mids):
                pl, ph, w = curve.point_at(lo), curve.point_at(hi), w_of(pm)
                for i in range(w.shape[0]):
                    if w[i] != 0.0:
                        terms += [m * w[i] * ph[i], -(m * w[i] * pl[i])]
            seen.clear()
            assert lambda_omega(om, S).hex() == math.fsum(terms).hex()
        # a callable omega is called once per segment, at its midpoint
        assert _bits(seen) == _bits(mids)
        ref_f = math.fsum(m * float(f(pm)) * (hi - lo)
                          for (lo, hi), pm in zip(segs, mids))
        assert lambda_f(f, S).hex() == ref_f.hex()


def test_arc_function_from_ambient_matches_point_at():
    T = _three_component_chain()
    vector = lambda P: np.asarray(P)[..., 0] * 1.3 - np.asarray(P)[..., 1] ** 2
    scalar = lambda p: math.hypot(p[0], p[1])   # raises on an (n, 2) array
    # one point at a time only: on an (n, 2) array it sums rows, and still
    # returns shape (n,) when n == 2
    rows = lambda p: p[0] ** 2 + p[1] ** 2
    # likewise: on two points it pairs the x row with the y row
    angle = lambda p: np.arctan2(p[1], p[0])
    for f in (vector, scalar, rows, angle):
        F = ArcFunction.from_ambient(T, f)
        for ci, (curve, _m) in enumerate(T.components):
            ss = np.concatenate([curve.cum, [0.123, 0.5 * curve.length]])
            for part in (ss, ss[:2]):
                ref = [float(f(curve.point_at(s))) for s in part]
                assert _bits(F.fns[ci](part)) == _bits(ref)


def test_row_control_eval_many_calls_charge_once_per_pair():
    from gaugeint.currents1d import _RowControl
    T = _three_component_chain()
    calls = []
    u = lambda p: p[0] - 2.0 * p[1]
    G = PieceCharge(lambda S: calls.append(S) or theta_u(u, S))
    ctl = _RowControl(G, T, 2, 2)
    cs = np.array([0.0, 0.2, T.components[2][0].cum[1]])
    ds = np.array([0.2, 0.9, T.components[2][0].length])
    ref = [ctl.eval_one(c, d) for c, d in zip(cs, ds)]
    calls.clear()
    # a counter wrapped around eval_one must not also see eval_many's pairs
    ctl.eval_one = lambda c, d: pytest.fail("eval_many went through eval_one")
    got = ctl.eval_many(cs, ds)
    assert [S.fragments for S in calls] == \
        [((2, c, d, 2),) for c, d in zip(cs.tolist(), ds.tolist())]
    assert _bits(got) == _bits(ref)


# ---------------------------------------------------------------------------
# theta charges on family rows: theta_u's value of each row's piece, bit for
# bit, whatever form u comes in

def _theta_vector(P):
    P = np.asarray(P, dtype=float)
    return P[..., 0] * 1.3 - P[..., 1] ** 2


def _theta_scalar(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise TypeError("one point at a time")
    return math.exp(p[0]) * 0.3 - p[1] ** 3


def _theta_square(p):
    # indexes p[0], p[1]: on an (n, 2) array it mixes rows and still
    # returns shape (n,) when n == 2
    return p[0] ** 2 + p[1] ** 2


# form -> (u, u_batch)
_THETA_FORMS = {
    "u_batch": (_theta_vector, _theta_vector),
    "vector": (_theta_vector, None),
    "scalar": (_theta_scalar, None),
    "square": (_theta_square, None),
    # -0.0 right of x = 1, 0.0 left of it: a row's atoms sum to 0.0
    "signed_zero": (lambda p: (1.0 - np.asarray(p)[..., 0]) * 0.0, None),
}


def _mult3_chain():
    return Current1D([
        (Curve(np.array([[0.1, 0.2], [0.9, -0.35], [1.7, 0.45],
                         [2.3, 0.1]])), 3),
        (Curve(np.array([[-2.0, 0.0], [-1.5, 1.0 / 3.0], [-1.0, 0.2],
                         [-0.6, 0.5]])), 2),
    ])


@pytest.mark.parametrize("form", sorted(_THETA_FORMS))
@pytest.mark.parametrize("chain", [_three_component_chain, _mult3_chain])
def test_theta_rows_match_theta_u(form, chain):
    T = chain()
    u, u_batch = _THETA_FORMS[form]
    G = theta_charge(u, u_batch=u_batch)
    frs = _fragments(T)
    ci, s1, s2, m = (np.array(col) for col in zip(*frs))
    ref = np.array([theta_u(u, Piece(T, [row])) for row in frs])
    fam = PieceFamily(T, ci, s1, s2, m, s1, validate=False)
    got = G.on_family(fam)
    assert _bits(got) == _bits(ref)
    assert _bits(abs_charge(G).on_family(fam)) == _bits(np.abs(ref))
    # m = 1 rows and m > 1 rows; the heptagon's full loop has no boundary
    assert {1, 2} <= set(m.tolist())
    closed = [k for k, (c, a, b, _m) in enumerate(frs)
              if T.components[c][0].closed and a == 0.0
              and b == T.components[c][0].length]
    assert got[closed].tolist() == [0.0] * len(closed)
    assert not np.signbit(got[closed]).any()
    # two rows of one component: an (n, 2) batch with n == 2
    assert ci[0] == ci[1]
    assert _bits(G.batch_rows(T, ci[:2], s1[:2], s2[:2], m[:2])) == \
        _bits(ref[:2])


def test_theta_rows_on_multiplicity_three_are_the_atoms_sum():
    # a row's value is fsum(m*u2, -m*u1), one rounded subtraction; the
    # product m*(u2 - u1) differs from it by an ulp on some m = 3 rows
    T = _mult3_chain()
    frs = [row for row in _fragments(T) if row[3] == 3]
    ci, s1, s2, m = (np.array(col) for col in zip(*frs))
    got = theta_charge(_theta_vector).batch_rows(T, ci, s1, s2, m)
    curve = T.components[0][0]
    u2 = _theta_vector(curve.point_at_many(s2))
    u1 = _theta_vector(curve.point_at_many(s1))
    assert _bits(got) == _bits([math.fsum([3.0 * b, -3.0 * a])
                                for a, b in zip(u1, u2)])
    assert _bits(got) != _bits(3.0 * (u2 - u1))


def _nan_at(bad):
    """u = x, not finite at the x coordinates in bad; scalar only."""
    def u(p):
        x = float(p[0])
        return bad.get(x, x)
    return u


@pytest.mark.parametrize("bad, atom", [
    ({0.5: math.nan}, (0.5, 0.0)),
    # the first row with a non-finite atom ...
    ({0.5: math.nan, 0.25: math.inf}, (0.25, 0.0)),
    ({1.0: -math.inf, 0.75: math.nan}, (0.75, 0.0)),
    # ... and of its two, the first in theta_u's (sorted) order
    ({0.25: -math.inf, 0.0: math.nan}, (0.0, 0.0)),
])
@pytest.mark.parametrize("form", ["u_batch", "scalar"])
def test_theta_rows_raise_at_the_first_non_finite_atom(form, bad, atom):
    seg = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)])
    u = _nan_at(bad)

    def u_batch(P):
        return np.array([u(p) for p in P])

    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    fam = PieceFamily(seg, [0] * 4, s[:-1], s[1:], [1] * 4, s[:-1])
    G = abs_charge(theta_charge(u, u_batch=u_batch if form == "u_batch"
                                else None))
    msg = re.escape(f"u non-finite at boundary atom {atom!r}")
    with pytest.raises(UndefinedAtAtom, match=msg):
        G.on_family(fam)
    # the per-piece path names the same atom on the first bad row
    first = min(i for i in range(4) if {s[i], s[i + 1]} & set(bad))
    with pytest.raises(UndefinedAtAtom, match=msg):
        G(Piece(seg, [(0, s[first], s[first + 1], 1)]))


def test_theta_row_of_a_closed_loop_skips_its_seam():
    # a full loop has no boundary, so u is never needed at its seam
    T = _three_component_chain()
    curve = T.components[1][0]
    seam = tuple(curve.vertices[0].tolist())
    u = lambda p: math.nan if tuple(p.tolist()) == seam else float(p[0])
    G = theta_charge(u)
    row = (1, 0.0, curve.length, 1)
    assert theta_u(u, Piece(T, [row])) == 0.0
    assert G.batch_rows(T, *(np.array([v]) for v in row)).tolist() == [0.0]
