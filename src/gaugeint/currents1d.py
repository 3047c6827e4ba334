"""One-dimensional integral currents as finite polyline chains.

A chain is a finite list of oriented simple polyline curves with positive
integer multiplicities.  Pieces are restrictions given by arc-length
fragments with integer sub-multiplicities; all mass and coverage arithmetic
is exact (integer weights, float arc coordinates compared exactly).  Charges
on pieces (boundary pairings, line integrals, mass) come with declared
traits checked by sampling.  The Howard-Cousin construction for chains
reduces to the interval construction through the arc-length
parameterization of each component, which is 1-Lipschitz, so interval width
bounds piece diameter.

Closed curves are stored with the first vertex repeated at the end; a
subarc crossing the seam is represented by two arc-adjacent fragments whose
shared endpoint atoms cancel exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NoPieces,
    PointOffSupport,
    SpecOutOfRange,
    TailBudgetFail,
    TraitViolation,
    UndefinedAtAtom,
)
from .hk_core import (_SEED_STORE, _ZERO_ORDERS, Gauge, _eval_points,
                      howard_cousin_family)
from .sums import exact_sum

__all__ = [
    "Curve",
    "Current1D",
    "ZeroCurrent",
    "Piece",
    "PieceFamily",
    "PieceCharge",
    "AmbientGauge",
    "mass",
    "boundary",
    "restrict",
    "restrict_halfplane",
    "is_piece",
    "theta_u",
    "lambda_omega",
    "lambda_f",
    "theta_charge",
    "lambda_charge",
    "lambda_f_charge",
    "mass_charge",
    "abs_charge",
    "pieces_at",
    "derivate",
    "howard_cousin_current",
    "mass_continuity_witness",
    "save_current",
    "load_current",
    "dumps_current",
    "loads_current",
]


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Oriented simple polyline in R^n with exact per-segment arc lengths.

    Closed curves repeat the first vertex as the last one, so segments are
    always consecutive vertex pairs and arc length runs from 0 to the total
    without wraparound bookkeeping.
    """

    __slots__ = ("vertices", "closed", "source", "source_tol",
                 "seg_vec", "seg_len", "cum", "length")

    def __init__(self, vertices, *, closed: bool = False,
                 source: Optional[str] = None,
                 source_tol: Optional[float] = None):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 2:
            raise ValueError("curve needs at least two vertices in R^n")
        if not np.all(np.isfinite(V)):
            raise ValueError("non-finite vertex coordinate")
        if closed and not np.array_equal(V[0], V[-1]):
            raise ValueError("closed curve must repeat its first vertex last")
        self.vertices = V
        self.closed = bool(closed)
        self.source = source
        self.source_tol = source_tol
        self.seg_vec = V[1:] - V[:-1]
        self.seg_len = np.sqrt(np.sum(self.seg_vec ** 2, axis=1))
        if np.any(self.seg_len == 0.0):
            raise ValueError("degenerate (zero-length) segment")
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def n_segments(self) -> int:
        return int(self.seg_vec.shape[0])

    def _seg_index(self, s: np.ndarray) -> np.ndarray:
        idx = self.cum.searchsorted(s, side="right") - 1
        # in place on the integers: np.clip's wrapper dominates short arrays
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, self.n_segments - 1, out=idx)
        return idx

    def point_at_many(self, ss) -> np.ndarray:
        ss = np.asarray(ss, dtype=float)
        idx = self._seg_index(ss)
        t = (ss - self.cum[idx]) / self.seg_len[idx]
        pts = self.vertices[idx] + t[:, None] * self.seg_vec[idx]
        at_end = ss >= self.length
        if at_end.any():
            pts[at_end] = self.vertices[-1]
        return pts

    def point_at(self, s: float) -> np.ndarray:
        return self.point_at_many(np.array([float(s)]))[0]

    def tangent_at_many(self, ss) -> np.ndarray:
        ss = np.asarray(ss, dtype=float)
        idx = self._seg_index(ss)
        return self.seg_vec[idx] / self.seg_len[idx][:, None]

    def nearest(self, x) -> tuple:
        """(distance, arc coordinate) of the closest polyline point to x."""
        x = np.asarray(x, dtype=float)
        d = x[None, :] - self.vertices[:-1]
        t = np.sum(d * self.seg_vec, axis=1) / (self.seg_len ** 2)
        t = np.clip(t, 0.0, 1.0)
        proj = self.vertices[:-1] + t[:, None] * self.seg_vec
        dist2 = np.sum((proj - x[None, :]) ** 2, axis=1)
        k = int(np.argmin(dist2))
        s = float(self.cum[k] + t[k] * self.seg_len[k])
        return (float(math.sqrt(dist2[k])), min(s, self.length))

    def bbox(self) -> tuple:
        return (self.vertices.min(axis=0), self.vertices.max(axis=0))

    @classmethod
    def from_param(cls, fn: Callable[[float], Sequence[float]], *,
                   t0: float = 0.0, t1: float = 1.0, closed: bool = False,
                   tol: float = 1e-6, max_depth: int = 24) -> "Curve":
        """Polyline from a parameterization, refined to chord error <= tol.

        Refinement bisects parameter intervals until the midpoint of the
        curve lies within tol of the chord midpoint.
        """
        def refine(ta, pa, tb, pb, depth, out):
            tm = 0.5 * (ta + tb)
            pm = np.asarray(fn(tm), dtype=float)
            chord_mid = 0.5 * (pa + pb)
            if depth >= max_depth or float(np.linalg.norm(pm - chord_mid)) <= tol:
                out.append(pb)
                return
            refine(ta, pa, tm, pm, depth + 1, out)
            refine(tm, pm, tb, pb, depth + 1, out)

        p0 = np.asarray(fn(t0), dtype=float)
        p1 = np.asarray(fn(t1), dtype=float)
        pts = [p0]
        refine(t0, p0, t1, p1, 0, pts)
        if closed:
            pts[-1] = pts[0]
        return cls(np.array(pts), closed=closed, source="param",
                   source_tol=tol)


# ---------------------------------------------------------------------------
# chains, boundaries, pieces


class ZeroCurrent:
    """Weighted point atoms; the boundary of a 1-chain or of a piece.

    Atoms at exactly equal coordinates are merged on construction and zero
    weights dropped, so pairings evaluate cancellations exactly.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple]):
        acc = {}
        for p, w in atoms:
            key = tuple(float(v) for v in p)
            acc[key] = acc.get(key, 0) + int(w)
        self.atoms = tuple(sorted((k, w) for k, w in acc.items() if w != 0))

    def total_weight(self) -> int:
        return sum(w for _p, w in self.atoms)

    def mass(self) -> float:
        return float(sum(abs(w) for _p, w in self.atoms))

    def eval(self, u: Callable) -> float:
        terms = []
        for p, w in self.atoms:
            v = float(u(np.array(p)))
            if not math.isfinite(v):
                raise UndefinedAtAtom(f"u non-finite at boundary atom {p!r}")
            terms.append(w * v)
        return exact_sum(terms)

    def __len__(self) -> int:
        return len(self.atoms)


class Current1D:
    """Finite chain: oriented simple curves with positive integer weights."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[tuple]):
        comps = []
        for curve, mult in components:
            if not isinstance(curve, Curve):
                raise TypeError("component curve must be a Curve")
            m = int(mult)
            if m < 1 or m != mult:
                raise ValueError(f"multiplicity {mult!r} must be a positive integer")
            comps.append((curve, m))
        if not comps:
            raise ValueError("chain needs at least one component")
        dims = {c.dim for c, _m in comps}
        if len(dims) != 1:
            raise ValueError("components live in different ambient dimensions")
        self.components = tuple(comps)

    @property
    def dim(self) -> int:
        return self.components[0][0].dim

    def __len__(self) -> int:
        return len(self.components)

    def mass(self) -> float:
        return exact_sum(m * c.length for c, m in self.components)

    def boundary(self) -> ZeroCurrent:
        atoms = []
        for curve, m in self.components:
            if curve.closed:
                continue
            atoms.append((curve.vertices[-1], m))
            atoms.append((curve.vertices[0], -m))
        return ZeroCurrent(atoms)

    def diameter(self) -> float:
        """Bounding-box diagonal; the scale for snap tolerances."""
        los = np.min([c.bbox()[0] for c, _m in self.components], axis=0)
        his = np.max([c.bbox()[1] for c, _m in self.components], axis=0)
        return float(np.linalg.norm(his - los))

    def full_piece(self) -> "Piece":
        rows = [(ci, 0.0, c.length, m)
                for ci, (c, m) in enumerate(self.components)]
        return Piece(self, rows)


def mass(obj) -> float:
    """Mass of a chain or a piece: multiplicity-weighted total length."""
    return obj.mass()


def boundary(obj) -> ZeroCurrent:
    return obj.boundary()


def _coverage_ok(rows, mult: int) -> bool:
    """Sweep: running sub-multiplicity never exceeds mult (closes first)."""
    events = []
    for s1, s2, m in rows:
        events.append((s2, 0, -m))
        events.append((s1, 1, m))
    run = 0
    for _pos, _rank, dm in sorted(events):
        run += dm
        if run > mult:
            return False
    return True


class Piece:
    """Restriction of a chain: arc-length fragments with integer weights.

    fragments: list of (component index, s1, s2, sub-multiplicity).
    Overlapping fragments are allowed as long as the pointwise sum of
    sub-multiplicities stays within the component multiplicity, which keeps
    both mass inequalities automatic.  Fragments are never coalesced.
    """

    __slots__ = ("parent", "fragments")

    def __init__(self, parent: Current1D, fragments: Iterable[tuple],
                 *, validate: bool = True):
        self.parent = parent
        frs = []
        for ci, s1, s2, m in fragments:
            frs.append((int(ci), float(s1), float(s2), int(m)))
        self.fragments = tuple(sorted(frs))
        if validate:
            self._validate()

    def _validate(self) -> None:
        per_comp: dict = {}
        for ci, s1, s2, m in self.fragments:
            if not (0 <= ci < len(self.parent.components)):
                raise SpecOutOfRange(f"component index {ci} out of range")
            curve, mult = self.parent.components[ci]
            if not (0.0 <= s1 < s2 <= curve.length):
                raise SpecOutOfRange(
                    f"fragment [{s1!r}, {s2!r}] outside [0, {curve.length!r}]")
            if not (1 <= m <= mult):
                raise SpecOutOfRange(
                    f"sub-multiplicity {m} not in [1, {mult}]")
            per_comp.setdefault(ci, []).append((s1, s2, m))
        for ci, rows in per_comp.items():
            if not _coverage_ok(rows, self.parent.components[ci][1]):
                raise SpecOutOfRange(
                    f"sub-multiplicities exceed multiplicity on component {ci}")

    def mass(self) -> float:
        return exact_sum(m * (s2 - s1) for _ci, s1, s2, m in self.fragments)

    def boundary(self) -> ZeroCurrent:
        atoms = []
        for ci, s1, s2, m in self.fragments:
            curve, _mult = self.parent.components[ci]
            if curve.closed and s1 == 0.0 and s2 == curve.length:
                continue
            p2, p1 = curve.point_at_many([s2, s1])
            atoms.append((p2, m))
            atoms.append((p1, -m))
        return ZeroCurrent(atoms)

    def is_indecomposable(self) -> bool:
        """One unit subarc: a single fragment with m = 1, or a seam-crossing
        pair of m = 1 fragments on one closed curve."""
        fr = self.fragments
        if len(fr) == 1:
            return fr[0][3] == 1
        if len(fr) == 2:
            (c1, a1, b1, m1), (c2, a2, b2, m2) = fr
            if c1 != c2 or m1 != 1 or m2 != 1:
                return False
            curve = self.parent.components[c1][0]
            if not curve.closed:
                return False
            return a1 == 0.0 and b2 == curve.length and b1 <= a2
        return False

    def support_points(self) -> np.ndarray:
        """Fragment endpoints plus interior polyline vertices."""
        pts = []
        for ci, s1, s2, _m in self.fragments:
            curve = self.parent.components[ci][0]
            inner = curve.cum[(curve.cum > s1) & (curve.cum < s2)]
            ss = np.concatenate([[s1], inner, [s2]])
            pts.append(curve.point_at_many(ss))
        return np.vstack(pts) if pts else np.empty((0, self.parent.dim))

    def support_diameter(self) -> float:
        P = self.support_points()
        if P.shape[0] < 2:
            return 0.0
        diff = P[:, None, :] - P[None, :, :]
        return float(np.sqrt(np.max(np.sum(diff ** 2, axis=2))))

    def complement(self) -> "Piece":
        """The piece T - S: remaining sub-multiplicity everywhere."""
        rows_out = []
        per_comp: dict = {}
        for ci, s1, s2, m in self.fragments:
            per_comp.setdefault(ci, []).append((s1, s2, m))
        for ci, (curve, mult) in enumerate(self.parent.components):
            rows = per_comp.get(ci, [])
            cuts = sorted({0.0, curve.length}
                          | {s for s1, s2, _m in rows for s in (s1, s2)})
            for lo, hi in zip(cuts, cuts[1:]):
                if hi <= lo:
                    continue
                cov = sum(m for s1, s2, m in rows if s1 <= lo and hi <= s2)
                rem = mult - cov
                if rem > 0:
                    rows_out.append((ci, lo, hi, rem))
        return Piece(self.parent, rows_out)

    def __add__(self, other: "Piece") -> "Piece":
        if other.parent is not self.parent:
            raise ValueError("pieces of different parents")
        return Piece(self.parent, self.fragments + other.fragments)

    def __repr__(self) -> str:
        return f"Piece({len(self.fragments)} fragments, mass={self.mass()!r})"


def restrict(T: Current1D, spec) -> Piece:
    """Piece from an explicit fragment spec.

    spec: either a list of (component index, s1, s2, m) rows, or a dict
    component index -> list of (s1, s2, m).
    """
    if isinstance(spec, dict):
        rows = [(ci, s1, s2, m) for ci, frs in spec.items()
                for s1, s2, m in frs]
    else:
        rows = list(spec)
    return Piece(T, rows)


def restrict_halfplane(T: Current1D, normal, offset: float,
                       m: Optional[int] = None) -> Piece:
    """Restriction to the half-space dot(x, normal) >= offset.

    Fragment boundaries fall at exact crossing points (linear interpolation
    per segment); vertices lying exactly on the plane become fragment
    endpoints with no interpolation error.
    """
    normal = np.asarray(normal, dtype=float)
    rows = []
    for ci, (curve, mult) in enumerate(T.components):
        sub = mult if m is None else int(m)
        g = curve.vertices @ normal - float(offset)
        s_open = None
        for k in range(curve.n_segments):
            g1, g2 = g[k], g[k + 1]
            s1, s2 = curve.cum[k], curve.cum[k + 1]
            if g1 >= 0.0 and s_open is None:
                s_open = s1
            if g1 < 0.0 <= g2:
                t = g1 / (g1 - g2)
                s_open = s1 + t * (s2 - s1)
            if g1 >= 0.0 > g2:
                t = g1 / (g1 - g2)
                cross = s1 + t * (s2 - s1)
                if s_open is not None and cross > s_open:
                    rows.append((ci, s_open, cross, sub))
                s_open = None
        if s_open is not None and curve.length > s_open:
            rows.append((ci, s_open, curve.length, sub))
    return Piece(T, rows)


def is_piece(S: Piece, T: Current1D) -> bool:
    """Both mass inequalities, via the coverage sweep (exact integers)."""
    if S.parent is not T:
        return False
    try:
        S._validate()
    except SpecOutOfRange:
        return False
    return True


# ---------------------------------------------------------------------------
# charges on pieces


def theta_u(u: Callable, S: Piece) -> float:
    """Boundary pairing: sum of weight * u(atom) over the boundary of S."""
    return S.boundary().eval(u)


def _covered_segments(curve: Curve, s1: float, s2: float) -> tuple:
    """(lo, hi) arrays: the parts of [s1, s2] on each polyline segment it
    covers, in arc order, empty parts dropped."""
    k1, k2 = curve._seg_index(np.array([s1, s2]))
    k = np.arange(k1, k2 + 1)
    lo = np.maximum(s1, curve.cum[k])
    hi = np.minimum(s2, curve.cum[k + 1])
    keep = hi > lo
    return lo[keep], hi[keep]


def lambda_omega(omega, S: Piece) -> float:
    """Line integral of a covector field along S.

    Per covered polyline segment the covector is evaluated at the arc
    midpoint and paired with the chord; for a constant axis covector the
    terms telescope through exact summation, making the proof identity
    (the integral of the tangent recovers endpoint differences) exact.
    A callable omega is called once per segment midpoint.
    """
    const = None
    if isinstance(omega, np.ndarray) or isinstance(omega, (list, tuple)):
        const = np.asarray(omega, dtype=float)
    terms = []
    for ci, s1, s2, m in S.fragments:
        curve = S.parent.components[ci][0]
        lo, hi = _covered_segments(curve, s1, s2)
        n = lo.shape[0]
        if n == 0:
            continue
        if const is not None:
            P = curve.point_at_many(np.concatenate([lo, hi]))
            W = np.empty((n, const.shape[0]))
            W[:] = const
        else:
            P = curve.point_at_many(np.concatenate([lo, hi, 0.5 * (lo + hi)]))
            W = np.array([np.asarray(omega(p), dtype=float)
                          for p in P[2 * n:]]).reshape(n, -1)
        d = W.shape[1]
        mw = m * W
        # terms with w == 0 are left out: a -0.0 among them could turn a
        # zero sum into -0.0
        nz = W != 0.0
        terms.extend((mw * P[n:2 * n, :d])[nz].tolist())
        terms.extend((-(mw * P[:n, :d]))[nz].tolist())
    return exact_sum(terms)


def lambda_f(f: Callable, S: Piece) -> float:
    """Integral of a scalar function against the mass measure of S.

    f is called once per covered segment's arc midpoint."""
    terms = []
    for ci, s1, s2, m in S.fragments:
        curve = S.parent.components[ci][0]
        lo, hi = _covered_segments(curve, s1, s2)
        V = np.array([float(f(p))
                      for p in curve.point_at_many(0.5 * (lo + hi))])
        terms.extend((m * V * (hi - lo)).tolist())
    return exact_sum(terms)


@dataclass
class PieceCharge:
    """Real function on pieces with declared traits.

    ``rows`` gives each family row's value, the value of fn on its
    one-fragment piece (ci, s1, s2, m); ``on_family`` and the carve
    controls of ``howard_cousin_current`` read rows through it.
    ``batch_rows``, when set, evaluates the rows
    (parent, ci array, s1 array, s2 array, m array) -> value array at once;
    without it ``rows`` builds one Piece per row.  Mass and theta charges,
    and the absolute value of any charge, carry it; line-integral charges do
    not.  Traits are checked by validate_on against sampled splits of a
    concrete chain, since they quantify over all pieces.
    """

    fn: Callable[[Piece], float]
    traits: frozenset = frozenset()
    name: str = "piece-charge"
    batch_rows: Optional[Callable] = None

    def __call__(self, S: Piece) -> float:
        return float(self.fn(S))

    def rows(self, parent: Current1D, ci, s1, s2, m) -> np.ndarray:
        if self.batch_rows is not None:
            return np.asarray(self.batch_rows(parent, ci, s1, s2, m),
                              dtype=float)
        return np.array([self(Piece(parent, [row], validate=False))
                         for row in zip(ci, s1, s2, m)])

    def on_family(self, family: "PieceFamily") -> np.ndarray:
        return self.rows(family.parent, family.ci, family.s1, family.s2,
                         family.m)

    def validate_on(self, T: Current1D, *, seed: int = 11,
                    rounds: int = 32) -> None:
        rng = random.Random(seed)
        tol = 1e-9
        for _ in range(rounds):
            ci = rng.randrange(len(T.components))
            curve, mult = T.components[ci]
            a = rng.uniform(0.0, curve.length)
            b = rng.uniform(0.0, curve.length)
            a, b = min(a, b), max(a, b)
            if b - a < 1e-12 * curve.length:
                continue
            cut = rng.uniform(a, b)
            whole = Piece(T, [(ci, a, b, 1)])
            left = Piece(T, [(ci, a, cut, 1)])
            right = Piece(T, [(ci, cut, b, 1)])
            vw, vl, vr = self(whole), self(left), self(right)
            scale = max(1.0, abs(vw), abs(vl), abs(vr))
            if "additive" in self.traits and abs(vw - (vl + vr)) > tol * scale:
                raise TraitViolation(
                    f"{self.name} not additive on sampled split")
            if "subadditive" in self.traits and \
                    abs(vw) > abs(vl) + abs(vr) + tol * scale:
                raise TraitViolation(
                    f"{self.name} not subadditive on sampled split")
            if "nonnegative" in self.traits and min(vw, vl, vr) < -tol * scale:
                raise TraitViolation(f"{self.name} negative on sampled piece")


def theta_charge(u: Callable, *, name: str = "theta",
                 u_batch: Optional[Callable] = None,
                 continuous: bool = False) -> PieceCharge:
    """The charge S -> boundary(S) paired with u.

    A piece goes through ``theta_u``; family rows go through ``batch_rows``,
    which evaluates u at every row's two ends at once, per component.
    ``u_batch`` is only an array form of u, (n, dim) points -> (n,) values;
    without it u is called on the arrays through ``_eval_points``.  A row
    gets theta_u's value of its one-fragment piece, bit for bit: the two
    atoms' fsum is the one rounded subtraction m*u(end) - m*u(start), and
    ends at equal points cancel.  Where u is not finite at an end,
    UndefinedAtAtom names that atom of the first such row, as theta_u
    would on the row's piece.
    """
    traits = {"additive"}
    if continuous:
        traits.add("continuous")
    at = u_batch if u_batch is not None else (lambda P: _eval_points(u, P))

    def batch(parent, ci, s1, s2, m):
        n = ci.shape[0]
        u1, u2 = np.empty(n), np.empty(n)
        same = np.empty(n, dtype=bool)
        for c in np.unique(ci):
            curve = parent.components[int(c)][0]
            rows = ci == c
            P2 = curve.point_at_many(s2[rows])
            P1 = curve.point_at_many(s1[rows])
            u2[rows] = np.asarray(at(P2), dtype=float)
            u1[rows] = np.asarray(at(P1), dtype=float)
            same[rows] = (P2 == P1).all(axis=1)
        u1[same] = u2[same] = 0.0
        bad = ~(np.isfinite(u2) & np.isfinite(u1))
        if bad.any():
            i = int(np.argmax(bad))
            P = parent.components[int(ci[i])][0].point_at_many([s2[i], s1[i]])
            atoms = sorted((tuple(float(v) for v in p), val)
                           for p, val in zip(P, (u2[i], u1[i])))
            p = next(p for p, val in atoms if not math.isfinite(val))
            raise UndefinedAtAtom(f"u non-finite at boundary atom {p!r}")
        # + 0.0 turns a -0.0 into 0.0, as fsum does
        return m * u2 - m * u1 + 0.0

    return PieceCharge(lambda S: theta_u(u, S), frozenset(traits), name, batch)


def lambda_charge(omega, *, name: str = "lambda-omega") -> PieceCharge:
    return PieceCharge(lambda S: lambda_omega(omega, S),
                       frozenset({"additive"}), name)


def lambda_f_charge(f: Callable, *, name: str = "lambda-f") -> PieceCharge:
    return PieceCharge(lambda S: lambda_f(f, S), frozenset({"additive"}), name)


def mass_charge() -> PieceCharge:
    def batch(parent, ci, s1, s2, m):
        return m * (s2 - s1)

    return PieceCharge(lambda S: S.mass(),
                       frozenset({"additive", "subadditive", "nonnegative",
                                  "continuous"}),
                       "mass", batch)


def abs_charge(charge: PieceCharge, *, name: Optional[str] = None) -> PieceCharge:
    """|charge|: subadditive and nonnegative when the input is additive."""
    traits = {"subadditive", "nonnegative"}
    if "continuous" in charge.traits:
        traits.add("continuous")
    def batch(parent, ci, s1, s2, m):
        return np.abs(charge.rows(parent, ci, s1, s2, m))

    return PieceCharge(lambda S: abs(charge.fn(S)), frozenset(traits),
                       name or f"|{charge.name}|", batch)


# ---------------------------------------------------------------------------
# tagged piece families


class PieceFamily:
    """Rows of indecomposable tagged subarcs, stored as parallel arrays.

    Each row is (component ci, arc interval [s1, s2], copies m, tag arc
    coordinate, tag point).  A row with m > 1 stands for m identical unit
    subarcs sharing the tag, which keeps multiplicity-m components covered
    without duplicating rows.  Coverage: per component and arc point the
    summed copies never exceed the component multiplicity.
    """

    __slots__ = ("parent", "ci", "s1", "s2", "m", "tag_s", "tag_points",
                 "remainder_value", "tail_kept", "__weakref__")

    def __init__(self, parent: Current1D, ci, s1, s2, m, tag_s,
                 tag_points=None, *, validate: bool = True):
        self.parent = parent
        self.ci = np.asarray(ci, dtype=np.int64)
        self.s1 = np.asarray(s1, dtype=float)
        self.s2 = np.asarray(s2, dtype=float)
        self.m = np.asarray(m, dtype=np.int64)
        self.tag_s = np.asarray(tag_s, dtype=float)
        if tag_points is None and self.n:
            tag_points = np.empty((self.n, parent.dim))
            for c in np.unique(self.ci):
                rows = self.ci == c
                tag_points[rows] = parent.components[int(c)][0].point_at_many(
                    self.tag_s[rows])
        self.tag_points = (np.asarray(tag_points, dtype=float)
                           if tag_points is not None
                           else np.empty((0, parent.dim)))
        self.remainder_value = 0.0
        self.tail_kept = len(parent.components)
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return int(self.ci.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def masses(self) -> np.ndarray:
        return self.m * (self.s2 - self.s1)

    def body_mass(self) -> float:
        return exact_sum(self.masses)

    def _validate(self) -> None:
        if self.n == 0:
            return
        if not (self.s1 < self.s2).all():
            raise ValueError("degenerate family row")
        if not ((self.s1 <= self.tag_s) & (self.tag_s <= self.s2)).all():
            raise ValueError("tag outside its row's arc interval")
        for c in np.unique(self.ci):
            curve, mult = self.parent.components[int(c)]
            rows = self.ci == c
            if float(self.s2[rows].max()) > curve.length or \
                    float(self.s1[rows].min()) < 0.0:
                raise ValueError("row outside component arc range")
            pos = np.concatenate([self.s1[rows], self.s2[rows]])
            dm = np.concatenate([self.m[rows], -self.m[rows]])
            rank = np.concatenate([np.ones(int(rows.sum())),
                                   np.zeros(int(rows.sum()))])
            order = np.lexsort((rank, pos))
            if int(np.max(np.cumsum(dm[order]))) > mult:
                raise ValueError(
                    f"family coverage exceeds multiplicity on component {c}")

    def is_fine(self, delta_of_row, *, exact_diameter: bool = False) -> bool:
        """Fineness against per-row gauge values.

        delta_of_row: array of gauge values at the tags.  The arc width
        s2 - s1 bounds the support diameter (arc parameterization is
        1-Lipschitz); with exact_diameter the polyline diameter is computed
        per row instead.
        """
        deltas = np.asarray(delta_of_row, dtype=float)
        if exact_diameter:
            diams = np.array([
                Piece(self.parent,
                      [(int(self.ci[i]), float(self.s1[i]), float(self.s2[i]),
                        1)]).support_diameter()
                for i in range(self.n)])
            return bool(np.all(diams < deltas))
        return bool(np.all((self.s2 - self.s1) < deltas))


# ---------------------------------------------------------------------------
# local pieces and derivates


def pieces_at(T: Current1D, x, delta: float, count: int = 8) -> list:
    """Up to count indecomposable subarcs through x with diameter < delta.

    x must lie on the support within the snap tolerance (1e-9 of the chain
    diameter); empty list when no component passes within snapping range
    but x is still near the chain (within 1e-3 of the diameter plus delta),
    PointOffSupport beyond that.
    """
    x = np.asarray(x, dtype=float)
    diam = T.diameter()
    snap = 1e-9 * diam
    hits = []
    best = math.inf
    for ci, (curve, _mult) in enumerate(T.components):
        dist, s0 = curve.nearest(x)
        best = min(best, dist)
        if dist <= snap:
            hits.append((ci, s0))
    if not hits:
        if best > 1e-3 * diam + delta:
            raise PointOffSupport(
                f"x at distance {best:.3e} from the chain support")
        return []
    out = []
    per_hit = max(1, count // len(hits))
    for ci, s0 in hits:
        curve = T.components[ci][0]
        L = curve.length
        for i in range(per_hit):
            h = 0.4995 * delta * (i + 1) / per_hit
            if curve.closed:
                s1, s2 = s0 - h, s0 + h
                if s2 - s1 >= L:
                    s1, s2 = s0 - 0.499 * L, s0 + 0.499 * L
                frs = []
                if s1 < 0.0:
                    frs = [(ci, s1 + L, L, 1), (ci, 0.0, s2, 1)]
                elif s2 > L:
                    frs = [(ci, s1, L, 1), (ci, 0.0, s2 - L, 1)]
                else:
                    frs = [(ci, s1, s2, 1)]
            else:
                s1 = max(0.0, s0 - h)
                s2 = min(L, s0 + h)
                if s2 <= s1:
                    continue
                frs = [(ci, s1, s2, 1)]
            S = Piece(T, frs)
            if S.support_diameter() < delta:
                out.append(S)
            if len(out) >= count:
                return out
    return out


def derivate(F: PieceCharge, T: Current1D, x, delta_schedule: Sequence[float],
             samples: int = 8) -> tuple:
    """Sampled lower and upper derivates of F along T at x.

    For each delta the ratio F(S)/M(S) is evaluated over sampled
    indecomposable pieces through x.  Pieces admissible at a fine delta
    are admissible at every coarser one, so the true per-delta extremes
    tighten monotonically and the pair at the finest populated delta
    bounds the rest; the return is (min, max) of the sampled ratios
    there, with coarser rungs kept only as a fallback when the finest
    ones produce no pieces.
    """
    deltas = sorted((float(d) for d in delta_schedule), reverse=True)
    if not deltas:
        raise ValueError("empty delta schedule")
    ratios = None
    for d in deltas:
        pieces = pieces_at(T, x, d, samples)
        if pieces:
            ratios = [F(S) / S.mass() for S in pieces]
    if ratios is None:
        raise NoPieces(f"no pieces through {x!r} at any sampled delta")
    return (min(ratios), max(ratios))


def mass_continuity_witness(T: Current1D, pieces: Sequence[Piece]) -> list:
    """(mass, boundary mass) per piece; the mass-to-zero bounded-boundary
    tables that drive charge continuity checks."""
    return [(S.mass(), S.boundary().mass()) for S in pieces]


# ---------------------------------------------------------------------------
# Howard-Cousin for chains


@dataclass(frozen=True)
class AmbientGauge:
    """Width function on ambient points, with ambient zero points.

    ``fn`` takes one point or an (n, dim) array of points, as
    ``_eval_points`` calls it.  Pulled back through each component's
    arc-length parameterization this becomes an interval gauge; the
    parameterization is 1-Lipschitz so fine arc intervals give fine pieces.
    """

    fn: Callable
    zero_points: tuple = ()
    name: str = "ambient"

    def pullback(self, curve: Curve, snap: float) -> Gauge:
        zs = []
        for p in self.zero_points:
            dist, s = curve.nearest(p)
            if dist <= snap:
                zs.append(s)
        return Gauge(0.0, curve.length,
                     lambda ss: _eval_points(self.fn, curve.point_at_many(ss)),
                     tuple(zs), name=self.name + "|arc")


class _RowControl:
    """Interval control on one component's arc domain, at full multiplicity."""

    def __init__(self, G: PieceCharge, T: Current1D, ci: int, mult: int):
        self.G = G
        self.T = T
        self.ci = ci
        self.mult = mult

    def eval_one(self, c: float, d: float) -> float:
        return self.G(Piece(self.T, [(self.ci, c, d, self.mult)],
                            validate=False))

    def eval_many(self, cs, ds) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        ds = np.asarray(ds, dtype=float)
        n = cs.shape[0]
        return self.G.rows(self.T, np.full(n, self.ci, dtype=np.int64), cs, ds,
                           np.full(n, self.mult, dtype=np.int64))

    def union_value(self, intervals) -> float:
        if not intervals:
            return 0.0
        return self.G(Piece(self.T,
                            [(self.ci, c, d, self.mult) for c, d in intervals],
                            validate=False))


def _row_control(G: PieceCharge, T: Current1D, ci: int,
                 mult: int) -> _RowControl:
    """The row control of component ci.  Inside a seed store there is one
    per (G, T, ci, mult), so the two seeds' carves are keyed by the same
    control and the second seed takes the first one's carves."""
    store = _SEED_STORE.get()
    if store is None:
        return _RowControl(G, T, ci, mult)
    # the control holds G and T, so their ids are not reused while it lives
    key = ("row control", id(G), id(T), ci, mult)
    if key not in store:
        store[key] = _RowControl(G, T, ci, mult)
    return store[key]


def _arc_gauges(gauge, T: Current1D) -> Callable:
    """(ci, curve) -> the interval gauge of component ci on [0, length],
    made once per pair and then kept.  ``gauge`` is an AmbientGauge, pulled
    back with the snap tolerance 1e-9 of T's diameter, or a callable (ci,
    curve) -> Gauge.  The seed store knows a gauge by its object, so both
    seeds of a certification must see the same one."""
    snap = 1e-9 * T.diameter()
    arcs: dict = {}

    def arc(ci: int, curve: Curve) -> Gauge:
        if (ci, curve) not in arcs:
            arcs[ci, curve] = gauge.pullback(curve, snap) \
                if isinstance(gauge, AmbientGauge) else gauge(ci, curve)
        return arcs[ci, curve]

    return arc


def howard_cousin_current(T: Current1D, gauge, G: PieceCharge, tau: float, *,
                          tag_order: str = "left",
                          zero_order: str = "declared",
                          max_depth: int = 64,
                          max_nodes: int = 4_000_000) -> PieceFamily:
    """Fine tagged piece family with |G| of the uncovered part below tau.

    Components are ranked by descending mass and a tail with |G| < tau/2 is
    dropped; each kept component is covered through its arc-length
    parameterization by the interval Howard-Cousin construction with budget
    tau/(2 k0), where k0 counts the kept components.  ``gauge`` is an
    AmbientGauge or a callable (component index, curve) -> interval Gauge.

    The family records the achieved remainder value and the kept count.
    Inside a seed store (``_certify`` opens one around the two seeds'
    builds) a component's carves are searched once for both seeds.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau {tau!r} must be positive")
    if zero_order not in _ZERO_ORDERS:
        raise ValueError(f"zero order must be one of {_ZERO_ORDERS}")
    n = len(T.components)
    order = sorted(range(n),
                   key=lambda i: (-T.components[i][0].length * T.components[i][1], i))
    k0 = None
    tail_val = 0.0
    for kept in range(1, n + 1):
        tail_rows = [(i, 0.0, T.components[i][0].length, T.components[i][1])
                     for i in order[kept:]]
        v = abs(G(Piece(T, tail_rows, validate=False))) if tail_rows else 0.0
        if v < tau / 2.0:
            k0, tail_val = kept, v
            break
    if k0 is None:
        raise TailBudgetFail(
            f"no component prefix bounds the tail charge below {tau/2.0!r}")
    arc = _arc_gauges(gauge, T)
    budget = tau / (2.0 * k0)
    kept_order = order[:k0]
    if zero_order == "reversed":
        kept_order = kept_order[::-1]
    cis, s1s, s2s, ms, tags = [], [], [], [], []
    remainders = [tail_val]
    for ci in kept_order:
        curve, mult = T.components[ci]
        control = _row_control(G, T, ci, mult)
        fc = howard_cousin_family((0.0, curve.length), arc(ci, curve),
                                  control, budget,
                                  tag_order=tag_order, zero_order=zero_order,
                                  max_depth=max_depth, max_nodes=max_nodes)
        fam = fc.family
        remainders.append(fc.remainder_value)
        cis.append(np.full(fam.n, ci, dtype=np.int64))
        s1s.append(fam.lefts)
        s2s.append(fam.rights)
        ms.append(np.full(fam.n, mult, dtype=np.int64))
        tags.append(fam.tags)
    if cis:
        ci = np.concatenate(cis)
        s1 = np.concatenate(s1s)
        s2 = np.concatenate(s2s)
        m = np.concatenate(ms)
        ts = np.concatenate(tags)
    else:
        ci = s1 = s2 = m = ts = np.empty(0)
    pf = PieceFamily(T, ci, s1, s2, m, ts)
    pf.remainder_value = exact_sum(abs(r) for r in remainders)
    pf.tail_kept = k0
    return pf


# ---------------------------------------------------------------------------
# interchange format

_FORMAT_HEADER = "current/1"


def dumps_current(T: Current1D) -> str:
    """Versioned text form; coordinates rendered to round-trip exactly."""
    lines = [_FORMAT_HEADER]
    for curve, mult in T.components:
        head = f"component mult={mult} closed={int(curve.closed)} orient=+1"
        if curve.source:
            head += f" source={curve.source}"
        lines.append(head)
        for v in curve.vertices:
            lines.append("v " + " ".join(repr(float(c)) for c in v))
    return "\n".join(lines) + "\n"


def loads_current(text: str) -> Current1D:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError(f"expected header {_FORMAT_HEADER!r}")
    comps = []
    cur_head = None
    cur_verts: list = []

    def flush():
        if cur_head is None:
            return
        mult = int(cur_head["mult"])
        closed = bool(int(cur_head["closed"]))
        verts = np.array(cur_verts)
        if cur_head.get("orient") == "-1":
            verts = verts[::-1].copy()
        comps.append((Curve(verts, closed=closed,
                            source=cur_head.get("source")), mult))

    for ln in lines[1:]:
        if ln.startswith("component"):
            flush()
            cur_head = {}
            cur_verts = []
            for tok in ln.split()[1:]:
                k, _eq, v = tok.partition("=")
                cur_head[k] = v.lstrip("+")
        elif ln.startswith("v "):
            if cur_head is None:
                raise ValueError("vertex line before any component")
            cur_verts.append([float(t) for t in ln.split()[1:]])
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    flush()
    return Current1D(comps)


def save_current(T: Current1D, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_current(T))


def load_current(path) -> Current1D:
    with open(path) as fh:
        return loads_current(fh.read())
