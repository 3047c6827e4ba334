import math

import numpy as np
import pytest

from gaugeint import (
    Gauge,
    PrimitiveControl,
    charge_from_primitive,
    continuity_probe,
    counting_charge,
    ftc_schedule,
    full_family_integrate,
    gallery,
    hk_integrate,
    length_charge,
    positivize_gauge,
    riemann_sum,
    uniform_schedule,
)
from gaugeint import interval_charges
from gaugeint.errors import TraitViolation
from gaugeint.hk_core import howard_cousin_family
from gaugeint.interval_charges import IntervalCharge, IntervalUnion
from gaugeint.sums import compensated_sum


def test_union_validates_overlap():
    with pytest.raises(ValueError):
        IntervalUnion((0.0, 1.0), [(0.1, 0.5), (0.4, 0.8)])


def test_union_length():
    u = IntervalUnion((0.0, 1.0), [(0.0, 0.25), (0.5, 0.75)])
    assert u.length() == 0.5


def test_charge_from_primitive_recovers_increment():
    F = lambda x: math.sin(x) + x
    G = charge_from_primitive(F, (0.0, 2.0))
    # exact recovery on a single interval, bit for bit
    assert G.eval_one(0.3, 1.7) == F(1.7) - F(0.3)


def _charge_from_primitive_loop(F, intervals):
    # the charge as a generator of two F calls per interval
    return compensated_sum(float(F(d)) - float(F(c)) for c, d in intervals)


def _counted_sin(x):
    _counted_sin.calls += 1
    return np.sin(3.0 * np.asarray(x, dtype=float)) * np.asarray(x) ** 2


@pytest.mark.parametrize("F, calls_per_union", [
    (lambda x: math.sin(3.0 * x) * x * x, None),     # scalars only
    (_counted_sin, 1),                               # arrays
], ids=["scalar_only", "array"])
def test_charge_from_primitive_matches_the_per_interval_loop(F,
                                                             calls_per_union):
    G = charge_from_primitive(F, (0.0, 2.0))
    rng = np.random.default_rng(5)
    # 600 intervals take the array sum's exponent buckets
    for n in (1, 7, 600):
        cuts = np.sort(rng.uniform(0.0, 2.0, 2 * n)).tolist()
        intervals = list(zip(cuts[0::2], cuts[1::2]))
        want = _charge_from_primitive_loop(F, intervals)
        _counted_sin.calls = 0
        assert G.union_value(intervals).hex() == want.hex()
        if calls_per_union is not None:
            assert _counted_sin.calls == calls_per_union
    assert G.union_value([]) == 0.0


def test_trait_validation_catches_fake_additive():
    # |length| of the union row count squared is not additive
    fn = lambda intervals: float(len(intervals)) ** 2
    with pytest.raises(TraitViolation):
        IntervalCharge((0.0, 1.0), fn, traits=("additive",))


def test_counting_charge_flat_under_shrinking_length():
    G = counting_charge((0.0, 1.0))
    curve = continuity_probe(G, count_bound=4, length_schedule=[0.1, 0.01, 0.001])
    # a count charge ignores total length: the probe cannot decay
    assert all(v >= 4.0 for _ell, v in curve)


def test_length_charge_decays_with_budget():
    G = length_charge((0.0, 1.0))
    curve = continuity_probe(G, count_bound=4, length_schedule=[0.1, 0.01, 0.001])
    vals = [v for _ell, v in curve]
    assert vals[0] <= 0.1 + 1e-12
    assert vals[2] <= 0.001 + 1e-12


def test_positivize_gauge_strictly_positive_and_equal_off_zeros():
    g = Gauge(0.0, 1.0, lambda x: min(0.05, abs(x - 0.5)), zero_set=(0.5,))
    G = charge_from_primitive(lambda x: x * x, (0.0, 1.0))
    pos = positivize_gauge(g, G, tau=1e-2)
    assert pos(0.5) > 0.0
    for x in np.linspace(0.01, 0.99, 23):
        if abs(x - 0.5) > 1e-12:
            assert pos(float(x)) == g(float(x))


def test_positivize_gauge_without_zeros_is_identity():
    g = Gauge.uniform(0.0, 1.0, 0.1)
    assert positivize_gauge(g, length_charge((0.0, 1.0)), 0.1) is g


# ---------------------------------------------------------------------------
# equivalence of the two certified integrals

def test_agreement_on_linear():
    eps = 1e-3
    sched = uniform_schedule(0.0, 1.0, 1e-3)
    a = hk_integrate(lambda x: x, sched, eps, vectorized=True)
    b = full_family_integrate(lambda x: x, None, sched, eps, vectorized=True)
    assert abs(a.value - b.value) <= 3.0 * eps + a.epsilon + b.epsilon


def test_agreement_on_pathological(square_sine_pair):
    pair = square_sine_pair
    eps = 1e-2
    sched = ftc_schedule(pair["F"], pair["Fprime"],
                         list(pair["exceptional"]), pair["host"])
    a = hk_integrate(pair["Fprime"], sched, eps, vectorized=True)
    b = full_family_integrate(pair["Fprime"], PrimitiveControl(pair["F"]),
                              sched, eps, vectorized=True)
    assert abs(a.value - b.value) <= 3.0 * eps + a.epsilon + b.epsilon


def test_full_family_dirichlet_null_value():
    d = gallery.dirichlet()
    res = full_family_integrate(d["fn"], d["schedule"].control, d["schedule"],
                                1e-4, vectorized=True)
    # tags avoid the point set entirely: the family sum is exactly zero
    assert res.value == 0.0


def test_full_family_seeds_share_one_bisection(monkeypatch):
    # the left seed at each tau and the right seed at the smallest are the
    # families lone builds make, bit for bit
    built, seen, marks = [], [], []

    def recording(*args, **kwargs):
        built.append(howard_cousin_family(*args, **kwargs))
        marks.append(len(seen))
        return built[-1]

    monkeypatch.setattr(interval_charges, "howard_cousin_family", recording)

    def width(xs):
        xs = np.asarray(xs, dtype=float)
        return np.minimum(0.002 + 0.05 * xs * xs, 0.3 * np.abs(xs - 0.4))

    def batch(xs):
        seen.extend(np.asarray(xs, dtype=float).tolist())
        return width(xs)

    gauge = Gauge(0.0, 1.0, batch, (0.4,), name="counted")
    control = PrimitiveControl(lambda x: x ** 3)
    taus = [1e-2, 1e-3]
    res = full_family_integrate(lambda x: 3.0 * x * x, control, gauge, 0.1,
                                taus, vectorized=True)
    assert len(built) == 3
    # the right seed evaluates nothing; the pair at tau 1e-3 no point twice
    assert marks[2] == marks[1]
    pair = seen[marks[0]:]
    assert len(pair) == len(set(pair))
    lone = [howard_cousin_family((0.0, 1.0), gauge, control, tau,
                                 tag_order=t, zero_order=z)
            for tau, t, z in ((1e-2, "left", "declared"),
                              (1e-3, "left", "declared"),
                              (1e-3, "right", "reversed"))]
    for got, want in zip(built, lone):
        for fa, fb in ((got.family, want.family), (got.carves, want.carves)):
            for attr in ("lefts", "rights", "tags"):
                assert getattr(fa, attr).tobytes() == getattr(fb, attr).tobytes()
        assert got.remainder_value == want.remainder_value
    assert res.certificate.sizes == (lone[1].family.n, lone[2].family.n)
    # the (tau, sum) rows, as CauchyFail would carry them
    f = lambda x: 3.0 * x * x
    assert res.partial_sums == tuple(
        (tau, riemann_sum(f, fc.family))
        for tau, fc in zip([1e-2, 1e-3, 1e-3], lone))
