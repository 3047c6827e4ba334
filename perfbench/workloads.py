"""Seeded workloads: each is a fixed list of public gaugeint calls (ops),
built from the seed alone, with a closed-form oracle per op.

`build(name, seed, user)` returns the op list.  `user` wraps every
callable the benchmark hands to the package (integrands, primitives,
gauge and charge functions); the traced run passes a wrapper that times
them as the `user` layer, the untraced run passes the identity.

The seed moves parameters inside windows chosen so that an op's cost
hardly depends on where in the window it lands (host endpoints within a
few percent, polynomial coefficients, circle centres, vertex indices);
the kinds of ops, their counts and their eps are fixed per workload.
That keeps run-to-run spread across seeds small while no two seeds
compute the same integrals.

Every workload starts with the `layer_floor` op, a few milliseconds of
calls that touch each layer once, so that a layer a workload bypasses
reads as a small measured floor rather than a constant zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import gaugeint
from gaugeint import (
    ArcFunction,
    CauchyFail,
    Curve,
    Current1D,
    Gauge,
    PrimitiveControl,
    TaggedFamily1D,
    abs_charge,
    arc_gauge_schedule,
    ftc_schedule,
    gallery,
    hk_integrate,
    mass_charge,
    theta_charge,
    uniform_current_schedule,
    uniform_schedule,
)

WORKLOADS = ("interval_ftc", "interval_mesh", "chain_hkp", "probes")


@dataclass
class Op:
    """One public call with its oracle.

    ``check`` receives the call's result, or the raised exception when
    ``expect`` names the typed failure the op must end in.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    expect: Optional[type] = None


def _mod(name: str):
    """Module attribute lookups at call time, so the traced run's wrappers
    (installed after the op list is built) are the ones called."""
    return getattr(gaugeint, name)


def build(name: str, seed: int, user=lambda f: f) -> list:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    ops = globals()["_" + name](rng, user)
    # Interleaved so that each class of ops samples the whole run, not one
    # stretch of it, since the machine's speed drifts over seconds.  The
    # order is the same for every seed: the allocator's state, and with it
    # the cost of large arrays, depends on the order of earlier ops.
    random.Random(name).shuffle(ops)
    return [_layer_floor(user)] + ops


def _u(rng, lo, hi, digits=6) -> float:
    """Uniform draw rounded to a short decimal, so op labels read cleanly."""
    return round(rng.uniform(lo, hi), digits)


# ---------------------------------------------------------------------------
# the floor op


def _layer_floor(user) -> Op:
    x = user(lambda x: x)
    half_sq = user(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2)
    sched = uniform_schedule(0.0, 1.0, 0.13)       # 8 intervals per seed
    seg = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)])
    u = user(lambda p: float(np.asarray(p)[0]) if np.ndim(p) == 1
             else np.asarray(p)[:, 0])
    du = user(lambda p: (1.0, 0.0) if np.ndim(p) == 1
              else np.tile([1.0, 0.0], (np.shape(p)[0], 1)))
    charge = theta_charge(u)

    def call():
        r = _mod("hk_integrate")(x, sched, 0.25, vectorized=True,
                                 keep_families=True)
        ff = _mod("full_family_integrate")(x, None, sched, 0.25,
                                           vectorized=True)
        audit = _mod("saks_henstock_audit")(x, half_sq,
                                            r.certificate.families[0].partition,
                                            vectorized=True)
        rep = _mod("ftc_verify")(u, seg, [0.1], Du=du, u_batch=u,
                                 gauge_schedule=uniform_current_schedule(0.05))
        theta = charge(seg.full_piece())
        return r, ff, audit, rep, theta

    def check(out):
        r, ff, audit, rep, theta = out
        # left and right tags on eight equal cells average to the exact 1/2;
        # each cell's Saks-Henstock term is width^2 / 2
        return (r.value == 0.5 and ff.value == 0.5 and audit == 0.0625
                and rep.lhs == 1.0 and rep.max_discrepancy() < 0.1
                and theta == 1.0)

    return Op("layer_floor", "layer_floor", call, check)


# ---------------------------------------------------------------------------
# interval_ftc: x^2 sin(x^-2) through its proof gauge


def _sqsin_exact(a: float, b: float) -> float:
    def F(x):
        return 0.0 if x == 0.0 else x * x * math.sin(x ** -2.0)
    return F(b) - F(a)


def _sqsin_op(kind: str, a: float, b: float, eps: float, F, Fp) -> Op:
    sched = ftc_schedule(F, Fp, [0.0], (a, b))
    exact = _sqsin_exact(a, b)
    label = f"{kind} sqsin [{a!r}, {b!r}] eps={eps!r}"
    if kind == "hk_integrate":
        def call():
            return _mod("hk_integrate")(Fp, sched, eps, vectorized=True)

        def check(r):
            return abs(r.value - exact) < 2.0 * eps and r.epsilon < eps
    else:
        control = PrimitiveControl(F)

        def call():
            return _mod("full_family_integrate")(Fp, control, sched, eps,
                                                 vectorized=True)

        def check(r):
            # the definition-agreement tolerance, against the exact value
            return abs(r.value - exact) < 3.0 * eps + r.epsilon \
                and r.epsilon < eps
    return Op(kind, label, call, check)


def _interval_ftc(rng, user) -> list:
    pair = gallery.square_sine_pair()
    F, Fp = user(pair["F"]), user(pair["Fprime"])
    ops = []
    for _ in range(8):
        ops.append(_sqsin_op("hk_integrate", 0.0, _u(rng, 0.98, 1.0), 1e-2,
                             F, Fp))
        ops.append(_sqsin_op("full_family_integrate", 0.0,
                             _u(rng, 0.98, 1.0), 1e-2, F, Fp))
    for _ in range(4):
        ops.append(_sqsin_op("hk_integrate", -_u(rng, 0.98, 1.0), 0.0, 1e-2,
                             F, Fp))
        ops.append(_sqsin_op("hk_integrate", -_u(rng, 0.9, 1.0),
                             _u(rng, 0.9, 1.0), 1e-2, F, Fp))
    ops.append(_sqsin_op("hk_integrate", 0.0, _u(rng, 0.98, 1.0), 1e-3,
                         F, Fp))
    # The Baseline ops: the counts at 1e-3 and the 10 s gate's op at 1e-4.
    ops.append(_sqsin_op("hk_integrate", 0.0, 1.0, 1e-3, F, Fp))
    ops.append(_sqsin_op("hk_integrate", 0.0, 1.0, 1e-4, F, Fp))
    return ops


# ---------------------------------------------------------------------------
# interval_mesh: polynomials on uniform meshes, Dirichlet carves


def _poly_coeffs(rng, degree: int) -> list:
    # dyadic coefficients keep the exact antiderivative a short fraction
    return [rng.randint(-16, 16) / 8.0 for _ in range(degree + 1)]


def _poly_exact(c: list, a: float, b: float) -> float:
    A, B = Fraction(a), Fraction(b)
    return float(sum(Fraction(ci) * (B ** (i + 1) - A ** (i + 1)) / (i + 1)
                     for i, ci in enumerate(c)))


def _poly_vector(c: list):
    def poly(x):
        x = np.asarray(x, dtype=float)
        acc = np.full(x.shape, c[-1])
        for ci in reversed(c[:-1]):
            acc = acc * x + ci
        return acc
    return poly


def _poly_scalar(c: list):
    def poly(x):
        acc = c[-1]
        for ci in reversed(c[:-1]):
            acc = acc * x + ci
        return acc
    return poly


def _mesh_op(rng, user, k: int, batch: bool) -> Op:
    a = _u(rng, -1.0, 0.0)
    b = a + _u(rng, 1.0, 1.5)
    c = _poly_coeffs(rng, 3)
    # width (b - a) 2^-k fits under h, width (b - a) 2^-(k-1) does not
    h = 1.5 * (b - a) * 2.0 ** -k
    # the two seeds' sums differ by width * |P(b) - P(a)|, below 0.025 for
    # k >= 11 and these coefficients and hosts
    eps = 5e-2
    exact = _poly_exact(c, a, b)
    if batch:
        f = user(_poly_vector(c))
        sched = uniform_schedule(a, b, h)

        def call():
            return _mod("hk_integrate")(f, sched, eps, vectorized=True)
    else:
        f = user(_poly_scalar(c))
        width = user(lambda x: h)
        gauge = Gauge(a, b, width, name="uniform-scalar")

        def call():
            return _mod("hk_integrate")(f, gauge, eps)

    def check(r):
        return (abs(r.value - exact) < 2.0 * eps and r.epsilon < eps
                and r.certificate.sizes == (2 ** k, 2 ** k))

    path = "batch" if batch else "scalar"
    return Op("hk_integrate", f"hk_integrate poly{c} [{a!r}, {b!r}] "
              f"2^{k} {path}", call, check)


def _dirichlet_ops(rng, user, q: int) -> list:
    d = gallery.dirichlet(q)
    fn = user(d["fn"])
    sched = d["schedule"]
    eps = round(10.0 ** -rng.uniform(3.0, 3.05), 9)

    def hk():
        return _mod("hk_integrate")(fn, sched, eps, vectorized=True)

    def ff():
        return _mod("full_family_integrate")(fn, sched.control, sched, eps,
                                             vectorized=True)

    return [
        Op("hk_integrate", f"hk_integrate dirichlet q={q} eps={eps!r}", hk,
           lambda r: abs(r.value) < 2.0 * eps and r.epsilon < eps),
        # tags avoid the point set entirely: the family sum is exactly zero
        Op("full_family_integrate",
           f"full_family_integrate dirichlet q={q} eps={eps!r}", ff,
           lambda r: r.value == 0.0),
    ]


def _interval_mesh(rng, user) -> list:
    ops = []
    for k in (16, 16, 16, 16, 16, 16, 17, 18, 19, 20):
        ops.append(_mesh_op(rng, user, k, batch=True))
    for k in (11, 12, 13, 13, 13, 13, 13, 13, 14, 15):
        ops.append(_mesh_op(rng, user, k, batch=False))
    for q in (5, 5, 6, 6, 7, 7):
        ops += _dirichlet_ops(rng, user, q)
    return ops


# ---------------------------------------------------------------------------
# chain_hkp: certified integrals on polyline chains


MESH = uniform_current_schedule(lambda e: e / 4.0)


def _quadratic(c: list):
    """c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2 on points or (n, 2)."""
    def f(p):
        P = np.asarray(p, dtype=float)
        x, y = P[..., 0], P[..., 1]
        v = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y \
            + c[5] * y * y
        return float(v) if P.ndim == 1 else v
    return f


def _simpson_oracle(f, T: Current1D) -> float:
    """Per-segment Simpson sums: exact for integrands that are quadratic
    along each segment."""
    parts = []
    for curve, m in T.components:
        V = curve.vertices
        mid = 0.5 * (V[:-1] + V[1:])
        vals = (np.asarray(f(V[:-1])) + 4.0 * np.asarray(f(mid))
                + np.asarray(f(V[1:]))) / 6.0
        parts.extend((m * vals * curve.seg_len).tolist())
    return math.fsum(parts)


def _linear_u():
    def u(p):
        P = np.asarray(p, dtype=float)
        v = P[..., 0] + 2.0 * P[..., 1]
        return float(v) if P.ndim == 1 else v
    return u


def _hkp_op(label: str, f, T: Current1D, G, eps: float, oracle: float) -> Op:
    def call():
        return _mod("hkp_integrate")(f, T, G, MESH, eps)

    def check(r):
        # the midpoint-oracle tolerance of the chain tests
        return abs(r.value - oracle) <= 2.0 * eps and r.epsilon < eps

    return Op("hkp_integrate", label, call, check)


def _circle_op(rng, user, eps: float, n_choices, r_lo, r_hi, charge) -> Op:
    n = rng.choice(n_choices)
    r = _u(rng, r_lo, r_hi)
    cx, cy = _u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0)
    T = gallery.unit_circle(n, radius=r, center=(cx, cy))
    c = [rng.randint(-8, 8) / 4.0 for _ in range(6)]
    f = _quadratic(c)
    if charge == "mass":
        G = mass_charge()
    else:
        u = user(_linear_u())
        G = abs_charge(theta_charge(u, u_batch=u, continuous=True))
    return _hkp_op(f"hkp_integrate circle n={n} r={r!r} c=({cx!r}, {cy!r}) "
                   f"f={c} G={charge} eps={eps!r}", user(f), T, G, eps,
                   _simpson_oracle(f, T))


def _sq_u(p):
    P = np.asarray(p, dtype=float)
    if P.ndim == 1:
        return float(gallery.square_sine(P[0]))
    return gallery.square_sine(P[:, 0])


def _sq_du(p):
    P = np.asarray(p, dtype=float)
    if P.ndim == 1:
        return (float(gallery.square_sine_prime(P[0])), 0.0)
    out = np.zeros_like(P)
    out[:, 0] = gallery.square_sine_prime(P[:, 0])
    return out


def _ftc_two_curves_op(user, tc: dict) -> Op:
    gp = tc["gamma_plus"]
    curve = gp.components[0][0]
    start, end = curve.vertices[0], curve.vertices[-1]
    u, du = user(_sq_u), user(_sq_du)
    ub = user(lambda P: gallery.square_sine(P[:, 0]))
    lhs = _sqsin_exact(float(start[0]), float(end[0]))
    schedule = [1e-2, 1e-3]

    def call():
        return _mod("ftc_verify")(u, gp, schedule, Du=du, u_batch=ub,
                                  exceptional=[tuple(start)],
                                  corner_mode="smooth")

    def check(rep):
        return (abs(rep.lhs - lhs) <= 1e-12
                and all(row["discrepancy"] < e and row["gap"] < e
                        for row, e in zip(rep.rows, schedule)))

    return Op("ftc_verify", "ftc_verify two_curves gamma_plus eps=[1e-2, 1e-3]",
              call, check)


def _monotone_op(rng, user) -> Op:
    eps = _u(rng, 7.4e-3, 7.6e-3, 8)
    seg = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)])
    u2 = user(lambda p: 2.0 * math.sqrt(max(float(np.asarray(p)[0]), 0.0)))

    def f_trunc(k):
        def fn(ss):
            with np.errstate(divide="ignore"):
                v = 1.0 / np.sqrt(np.maximum(ss, 0.0))
            return np.minimum(v, float(k))
        return ArcFunction({0: user(fn)}, name=f"min(s^-1/2,{k})")

    def build(e):
        # scalar arc gauge: no batch evaluator, so the scalar Cousin path runs
        return Gauge(0.0, 1.0, user(lambda s: min(e / 8.0, 0.5 * e * s)),
                     zero_set=(0.0,))

    ks = (1, 10, 100, 10 ** 4, 10 ** 6)
    fs = [f_trunc(k) for k in ks]

    def call():
        return _mod("monotone_convergence_harness")(
            fs, seg, theta_charge(u2), arc_gauge_schedule({0: build}), eps,
            tau_schedule=[eps / 2.0])

    def check(results):
        values = [r.value for r in results]
        # the acceptance test's limit tolerance: the integral of
        # min(s^-1/2, 1e6) over [0, 1] is 2 - 1e-6
        return values == sorted(values) and abs(values[-1] - 2.0) <= 1e-3

    return Op("monotone_convergence_harness",
              f"monotone_convergence_harness truncations eps={eps!r}",
              call, check)


def _witness_op(user, tc: dict) -> Op:
    T = tc["gamma"]
    fd = ArcFunction.tangential_fd(T, user(_sq_u))
    absfd = ArcFunction({ci: (lambda ss, g=g: np.abs(g(ss)))
                         for ci, g in fd.fns.items()}, name="|du/ds|")
    hg = tc["hump_gauge"]()

    def call():
        return _mod("hkp_integrate")(absfd, T, mass_charge(), lambda e: hg,
                                     1e-3, tau_schedule=[1e-1, 1e-2, 1e-3])

    def check(exc):
        partials = [s for _t, s in exc.partial_sums]
        incs = [partials[i + 1] - partials[i]
                for i in range(len(partials) - 2)]
        return len(incs) == 2 and all(inc >= 0.05 for inc in incs)

    return Op("hkp_integrate", "hkp_integrate |du/ds| witness on gamma",
              call, check, expect=CauchyFail)


def _chain_hkp(rng, user) -> list:
    ops = []
    for i in range(20):
        ops.append(_circle_op(rng, user, 1e-2, (128, 256, 512), 0.49,
                              0.51, "mass" if i % 2 == 0 else "theta"))
    for _ in range(4):
        segs = rng.choice((128, 256))
        cs = gallery.circles_current(J=5, segments=segs)
        f = cs["f"]
        ops.append(_hkp_op(f"hkp_integrate circles_current J=5 "
                           f"segments={segs} eps=0.001", user(f), cs["T"],
                           mass_charge(), 1e-3, _simpson_oracle(f, cs["T"])))
    ops.append(_circle_op(rng, user, 1e-3, (2048,), 0.99, 1.01,
                          "theta"))
    tc = gallery.two_curves()
    ops.append(_ftc_two_curves_op(user, tc))
    ops.append(_monotone_op(rng, user))
    ops.append(_witness_op(user, tc))
    return ops


# ---------------------------------------------------------------------------
# probes: audits, AC* probes, derivates and piece algebra; nothing is built


def _ac_star_ops(rng, user) -> list:
    dev = gallery.devil_staircase(levels=16)
    devil = user(dev["fn"])
    square = user(lambda x: x * x)
    ops = []
    k, trials = 6, 2
    anchors = dev["level_points"](k)
    h = 3.0 ** -k
    g = Gauge.uniform(0.0, 1.0, h)
    bound = 2.0 * float(np.sum(anchors)) * h + 1e-12
    for _ in range(4):
        s = rng.randrange(2 ** 31)
        ops.append(Op(
            "ac_star_probe", f"ac_star_probe devil k={k} trials={trials} "
            f"seed={s}",
            lambda s=s: _mod("ac_star_probe")(devil, anchors, g,
                                              trials=trials, seed=s),
            lambda v: v > 0.9))
        ops.append(Op(
            "ac_star_probe", f"ac_star_probe x^2 k={k} trials={trials} "
            f"seed={s}",
            lambda s=s: _mod("ac_star_probe")(square, anchors, g,
                                              trials=trials, seed=s),
            lambda v: v < bound))
    return ops


def _audit_ops(rng, user) -> list:
    pair = gallery.square_sine_pair()
    F, Fp = user(pair["F"]), user(pair["Fprime"])
    sched = ftc_schedule(F, Fp, [0.0], (0.0, 1.0))
    ops = []
    for eps in (1e-2, 1e-3):
        res = hk_integrate(Fp, sched, eps, vectorized=True, keep_families=True)
        for seed_name, fc in zip(("left", "right"), res.certificate.families):
            part = fc.partition
            subs = [("full", part)]
            for j in range(4):
                keep = np.array([rng.random() < 0.5 for _ in range(part.n)])
                subs.append((f"sub{j}", TaggedFamily1D(
                    part.host, part.lefts[keep], part.rights[keep],
                    part.tags[keep], validate=False)))
            for sub_name, fam in subs:
                ops.append(Op(
                    "saks_henstock_audit",
                    f"saks_henstock_audit sqsin eps={eps!r} {seed_name} "
                    f"{sub_name} n={fam.n}",
                    lambda fam=fam: _mod("saks_henstock_audit")(
                        Fp, F, fam, vectorized=True),
                    lambda v, eps=eps: v < 2.0 * eps))
            if eps == 1e-2:
                ops.append(Op(
                    "saks_henstock_audit",
                    f"saks_henstock_audit sqsin eps={eps!r} {seed_name} scalar",
                    lambda fam=part: _mod("saks_henstock_audit")(Fp, F, fam),
                    lambda v, eps=eps: v < 2.0 * eps))
    return ops


def _derivate_ops(rng, user) -> list:
    circ = gallery.unit_circle(8192)
    curve = circ.components[0][0]
    Fc = theta_charge(user(lambda p: float(p[0])))
    ops = []
    for _ in range(16):
        idx = rng.randrange(8192)
        target = -math.sin(2.0 * math.pi * idx / 8192)
        ops.append(Op(
            "derivate", f"derivate circle8192 vertex={idx}",
            lambda idx=idx: _mod("derivate")(Fc, circ, curve.vertices[idx],
                                             [1e-3, 1e-4]),
            lambda lh, t=target: abs(lh[0] - t) < 1e-3 and abs(lh[1] - t) < 1e-3))
    zz = gallery.zigzag_staircase(j_max=12)
    Th = theta_charge(user(zz["h"]))
    ops.append(Op(
        "derivate", "derivate zigzag origin",
        lambda: _mod("derivate")(Th, zz["T"], (0.0, 0.0),
                                 [2.0 ** -6, 2.0 ** -8, 2.0 ** -10]),
        lambda lh: lh[1] < 1e-2))
    sp0 = zz["steps"][0]
    r6 = next(sp for sp in zz["steps"] if sp["j"] == 6)
    h = user(zz["h"])

    def composite():
        S = _mod("restrict")(zz["T"], [(0, 0.0, sp0["tread"][1], 1),
                                       (0, r6["riser"][0], r6["riser"][1], 1)])
        return _mod("is_piece")(S, zz["T"]), _mod("theta_u")(h, S) / S.mass()

    ops.append(Op("piece_algebra", "zigzag composite piece ratio", composite,
                  lambda out: out[0] and out[1] > 0.5))
    return ops


def _random_chain(rng) -> Current1D:
    """Two axis-parallel staircases on a dyadic grid, as in the acceptance
    test's round trips but with a fixed size, so every trip costs about
    the same."""
    grid = 2.0 ** -12
    comps = []
    for _ in range(2):
        x = rng.randrange(2048) * grid
        y = rng.randrange(2048) * grid
        verts = [(x, y)]
        for _k in range(8):
            if len(verts) % 2:
                x += float(2 ** rng.randrange(7)) * grid
            else:
                y += float(2 ** rng.randrange(7)) * grid
            verts.append((x, y))
        comps.append((Curve(np.array(verts)), rng.randint(1, 3)))
    return Current1D(comps)


def _round_trip_op(rng, user, i: int) -> Op:
    T = _random_chain(rng)
    rows = []
    for ci, (c, m) in enumerate(T.components):
        nv = len(c.cum)
        a = rng.randrange(nv - 1)
        b = rng.randrange(a + 1, nv)
        rows.append((ci, float(c.cum[a]), float(c.cum[b]), rng.randint(1, m)))
    u = user(lambda p: float(p[0] + p[1]) if np.ndim(p) == 1
             else np.asarray(p)[:, 0] + np.asarray(p)[:, 1])
    omega = (1.0, -1.0)

    def call():
        S = _mod("restrict")(T, rows)
        C = S.complement()
        full = T.full_piece()
        return (_mod("is_piece")(S, T), _mod("is_piece")(C, T),
                S.mass(), C.mass(), T.mass(),
                _mod("theta_u")(u, S), _mod("theta_u")(u, C),
                _mod("theta_u")(u, full),
                _mod("lambda_omega")(omega, S), _mod("lambda_omega")(omega, C),
                _mod("lambda_omega")(omega, full))

    def check(out):
        okS, okC, mS, mC, mT, tS, tC, tT, lS, lC, lT = out
        # exact additivity, to the last bit, as the acceptance test demands
        return (okS and okC and mS <= mT and mC <= mT and mS + mC == mT
                and tS + tC == tT and lS + lC == lT)

    return Op("piece_algebra", f"piece_algebra round trip {i} rows={rows}",
              call, check)


def _probes(rng, user) -> list:
    ops = _ac_star_ops(rng, user)
    ops += _audit_ops(rng, user)
    ops += _derivate_ops(rng, user)
    ops += [_round_trip_op(rng, user, i) for i in range(150)]
    return ops


# ---------------------------------------------------------------------------
# results, as compared between the traced and untraced passes


def fingerprint(out) -> tuple:
    """Every float an op's outcome carries, as exact hex strings."""
    if isinstance(out, BaseException):
        return (type(out).__name__,) + fingerprint(
            getattr(out, "partial_sums", ()))
    if isinstance(out, gaugeint.HKResult):
        c = out.certificate
        return fingerprint((out.value, out.epsilon, c.sum1, c.sum2, c.sizes,
                            c.remainders, out.partial_sums))
    if isinstance(out, gaugeint.FtcReport):
        return fingerprint((out.lhs, [sorted(r.items()) for r in out.rows]))
    if isinstance(out, (list, tuple)):
        return tuple(x for item in out for x in fingerprint(item))
    if isinstance(out, (float, np.floating)):
        return (float(out).hex(),)
    if isinstance(out, np.ndarray):
        return fingerprint(out.tolist())
    return (repr(out),)
