import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeint import (
    AmbientGauge,
    Curve,
    Current1D,
    NoPieces,
    PointOffSupport,
    SpecOutOfRange,
    boundary,
    derivate,
    dumps_current,
    gallery,
    howard_cousin_current,
    is_piece,
    lambda_f,
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
    gauge = AmbientGauge(fn=lambda p: 0.05,
                         batch_fn=lambda P: np.full(P.shape[0], 0.05))
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
    gauge = AmbientGauge(fn=lambda p: 0.7,
                         batch_fn=lambda P: np.full(P.shape[0], 0.7))
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
