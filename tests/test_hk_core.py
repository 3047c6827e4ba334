import contextlib
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugeint import (
    AmbientGauge,
    AuditFail,
    CauchyFail,
    ContinuityBudgetFail,
    Current1D,
    Curve,
    DepthExceeded,
    Gauge,
    InvalidGauge,
    PrimitiveControl,
    UndefinedTag,
    ac_star_probe,
    as_schedule,
    charge_from_primitive,
    cousin_partition,
    ftc_schedule,
    full_family_integrate,
    gallery,
    hk_integrate,
    hkp_integrate,
    hkp_riemann_sum,
    howard_cousin_current,
    howard_cousin_family,
    mass_charge,
    pointwise_lip,
    positivize_gauge,
    proportional_schedule,
    riemann_sum,
    saks_henstock_audit,
    uniform_current_schedule,
    uniform_schedule,
)
from gaugeint import hk_core, interval_charges
from gaugeint.errors import SearchFail
from gaugeint.hk_core import (
    FamilyConstruction,
    Schedule,
    TaggedFamily1D,
    _eval_points,
    ftc_gauge,
)
from gaugeint.sums import compensated_sum


# ---------------------------------------------------------------------------
# gauges

def test_gauge_rejects_negative_value():
    g = Gauge(0.0, 1.0, lambda x: -1.0)
    with pytest.raises(InvalidGauge):
        g(0.5)


def test_gauge_rejects_undeclared_zero():
    g = Gauge(0.0, 1.0, lambda x: abs(x - 0.5))
    with pytest.raises(InvalidGauge):
        g(0.5)


def test_gauge_accepts_declared_zero():
    g = Gauge(0.0, 1.0, lambda x: abs(x - 0.5), zero_set=(0.5,))
    assert g(0.5) == 0.0
    assert g(0.25) == 0.25


def test_gauge_batch_matches_scalar():
    g = Gauge.proportional(0.0, 2.0, 0.0, 0.1)
    xs = np.linspace(0.1, 1.9, 17)
    batch = g.eval_many(xs)
    assert batch == pytest.approx([g(float(x)) for x in xs], abs=0.0)


def test_gauge_eval_many_messages_print_plain_floats():
    with pytest.raises(InvalidGauge, match=r"^gauge\(0\.5\) = -1\.0$"):
        Gauge(0.0, 1.0, lambda x: -1.0).eval_many(np.array([0.5]))
    with pytest.raises(InvalidGauge,
                       match=r"^gauge vanishes at undeclared point 0\.5$"):
        Gauge(0.0, 1.0, lambda x: abs(x - 0.5)).eval_many(np.array([0.5]))


def test_raising_gauge_fn_is_invalid_gauge_naming_the_point():
    g = Gauge(0.0, 1.0, lambda x: 1 / 0, name="bad")
    for call, x in ((lambda: g.eval_many(np.array([0.25, 0.5])), "0.25"),
                    (lambda: g(np.float64(0.5)), "0.5")):
        with pytest.raises(InvalidGauge, match=rf"^bad\({x}\) raised$") as info:
            call()
        assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_gauge_int_error_from_gauge_fn_passes_through():
    calls = []

    def fn(xs):
        calls.append(np.shape(xs))
        raise SearchFail("no radius here")

    g = Gauge(0.0, 1.0, fn, name="searching")
    with pytest.raises(SearchFail, match="^no radius here$"):
        g.eval_many(np.array([0.25, 0.5]))
    with pytest.raises(SearchFail, match="^no radius here$"):
        g(0.5)
    # the array calls only: no retry point by point
    assert calls == [(2,), (1,)]


def _built_gauges():
    """Every kind of gauge the package builds, with points to read it at."""
    sq = gallery.square_sine_pair()
    prop = Gauge.proportional(0.0, 1.0, 0.5, 0.3)
    circle = gallery.unit_circle(16).components[0][0]
    tc = gallery.two_curves()
    hump_curve = tc["gamma"].components[0][0]
    dirichlet = gallery.dirichlet(5)["schedule"].gauge(1e-3)
    xs = np.linspace(0.0, 1.0, 37)
    return [
        (Gauge.uniform(0.0, 1.0, 0.1), xs),
        (prop, xs),
        (ftc_gauge(sq["F"], sq["Fprime"], [], 1e-2, (0.0, 1.0)), xs[1:-1]),
        (positivize_gauge(prop, charge_from_primitive(lambda x: x * x,
                                                      (0.0, 1.0)), 1e-2), xs),
        (uniform_current_schedule(0.05).gauge(0.1).pullback(circle, 1e-9),
         np.linspace(0.0, circle.length, 29)),
        (tc["hump_gauge"]()(0, hump_curve),
         np.linspace(0.0, hump_curve.length, 29)),
        (dirichlet, np.concatenate([xs, dirichlet.zero_set])),
    ]


def test_every_built_gauge_gives_one_value_per_point_either_way():
    # one callable: a batch read and point-by-point reads agree bit for bit
    for g, xs in _built_gauges():
        assert g.eval_many(xs).tobytes() == \
            np.array([g(x) for x in xs]).tobytes(), g.name


# ---------------------------------------------------------------------------
# Cousin partitions

def test_cousin_partition_is_fine_partition():
    g = Gauge(0.0, 1.0, lambda x: 0.05 + 0.2 * x)
    part = cousin_partition((0.0, 1.0), g)
    assert part.is_partition
    assert part.is_fine(g)
    # tags sit inside their own interval
    assert np.all(part.lefts <= part.tags)
    assert np.all(part.tags <= part.rights)


def _width_gauges(h):
    """One constant width, in array form and as a scalar-only function."""
    return (Gauge.uniform(0.0, 1.0, h),
            Gauge(0.0, 1.0, lambda x: h, name="uniform-scalar"))


def test_cousin_partition_deterministic():
    # a scalar-only fn (min raises on arrays, so each point is its own
    # call) and its array twin build the same family, byte for byte
    twins = [_width_gauges(0.013),
             (Gauge(0.0, 1.0, lambda x: min(0.05, 0.002 + x * x)),
              Gauge(0.0, 1.0, lambda xs: np.minimum(0.05, 0.002 + xs * xs)))]
    for tag_order in ("left", "right"):
        for pair in twins:
            ref = cousin_partition((0.0, 1.0), pair[1], tag_order=tag_order)
            for g in pair:
                for _run in range(2):
                    p = cousin_partition((0.0, 1.0), g, tag_order=tag_order)
                    for attr in ("lefts", "rights", "tags"):
                        assert getattr(p, attr).tobytes() == \
                            getattr(ref, attr).tobytes()


def test_cousin_partition_matches_recursion_each_point_once():
    # the engine passes end values down to the children, so it evaluates
    # each point once and still builds the family plain recursion builds
    def width(x):
        return 0.002 + 0.05 * x * x

    def recurse(c, d, order, evaluated):
        m = 0.5 * (c + d)
        for x in ((c, m, d) if order == "left" else (d, m, c)):
            evaluated.add(x)
            if d - c < width(x):
                return [(c, d, x)]
        return (recurse(c, m, order, evaluated)
                + recurse(m, d, order, evaluated))

    for tag_order in ("left", "right"):
        seen = []

        def counted(xs):
            seen.extend(np.asarray(xs, dtype=float).tolist())
            return width(np.asarray(xs, dtype=float))

        g = Gauge(0.0, 1.0, counted)
        p = cousin_partition((0.0, 1.0), g, tag_order=tag_order)
        got = sorted(zip(p.lefts.tolist(), p.rights.tolist(), p.tags.tolist()))
        evaluated = set()
        assert got == recurse(0.0, 1.0, tag_order, evaluated)
        assert len(seen) == len(set(seen))
        # outside a certification call the engine evaluates only the points
        # its own order needs, as the recursion does
        assert set(seen) == evaluated


def test_cousin_partition_node_budget():
    for g in _width_gauges(1e-6):
        with pytest.raises(DepthExceeded,
                           match=re.escape(f"{g.name}: node budget 100 ")):
            cousin_partition((0.0, 1.0), g, max_nodes=100)


@pytest.mark.parametrize("gauge, max_depth, error, message", [
    # [0, 0.25] fits at depth 2; [0.25, 0.5], [0.5, 0.75] and [0.75, 1]
    # stay open
    (Gauge(0.0, 1.0, lambda x: 0.3 if x < 0.25 else 1e-6, name="step"), 2,
     DepthExceeded, "step: max depth 2 reached near 0.25"),
    # one gauge batch holds both depth-2 midpoints
    (Gauge(0.0, 1.0, lambda x: -1.0 if x in (0.375, 0.625) else 0.05,
           name="neg"), 64, InvalidGauge, "neg(0.375) = -1.0"),
    # no depth at all is bisected
    (Gauge.uniform(0.0, 1.0, 0.1), -1, DepthExceeded,
     "uniform[h=0.1]: bisection produced no intervals"),
])
def test_cousin_partition_errors_name_the_leftmost_point(gauge, max_depth,
                                                         error, message):
    for tag_order in ("left", "right"):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            cousin_partition((0.0, 1.0), gauge, tag_order=tag_order,
                             max_depth=max_depth)


@pytest.mark.parametrize("segments, error, message", [
    ([], ValueError, "segments must be a nonempty sorted list"),
    ([(0.5, 1.0), (0.0, 0.4)], ValueError, "segments must be"),
    ([(0.0, 0.6), (0.5, 1.0)], ValueError, "segments must be"),
    ([(0.0, 0.5), (0.7, 0.7)], ValueError, "segments must be"),
    ([(0.0, 0.4), (0.9, 1.5)], InvalidGauge,
     "host [0.9, 1.5] not inside gauge host (0.0, 1.0)"),
    ([(0.0, 0.4), (0.6, 1.0)], InvalidGauge, "gauge vanishes inside the host"),
], ids=["empty", "unsorted", "overlapping", "degenerate", "outside", "zero"])
def test_cousin_partition_rejects_bad_segment_lists(segments, error, message):
    seen = []

    def width(xs):
        seen.append(xs)
        return np.full(np.shape(xs), 0.1)

    gauge = Gauge(0.0, 1.0, width, (0.8,))
    with pytest.raises(error, match="^" + re.escape(message)):
        cousin_partition(segments, gauge)
    assert seen == []


def test_tagged_family_rejects_unequal_lengths():
    for tags in ([0.1, 0.6, 0.9], [0.1]):
        with pytest.raises(ValueError, match="equal-length"):
            TaggedFamily1D((0.0, 1.0), [0.0, 0.5], [0.5, 1.0], tags)


@given(st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_cousin_partition_properties_random(h, a, span):
    b = a + span
    g = Gauge.uniform(a, b, h)
    part = cousin_partition((a, b), g)
    assert part.is_partition
    assert part.is_fine(g)


# ---------------------------------------------------------------------------
# both certification seeds from one bisection pass

_SEEDS = (("left", "declared"), ("right", "reversed"))


def _counted_gauge(zeros=()):
    """Gauge on [0, 1] vanishing at ``zeros``, recording every point its
    array-form fn is asked for."""
    seen = []

    def width(xs):
        xs = np.asarray(xs, dtype=float)
        d = 0.002 + 0.05 * xs * xs
        for y in zeros:
            d = np.minimum(d, 0.3 * np.abs(xs - y))
        return d

    def batch(xs):
        seen.extend(np.asarray(xs, dtype=float).tolist())
        return width(xs)

    return Gauge(0.0, 1.0, batch, tuple(zeros), name="counted"), seen


def _assert_same_construction(got, want):
    for fa, fb in ((got.family, want.family), (got.carves, want.carves)):
        for attr in ("lefts", "rights", "tags"):
            assert getattr(fa, attr).tobytes() == getattr(fb, attr).tobytes()
    assert got.remainder_value == want.remainder_value


class _CountedControl(PrimitiveControl):
    """PrimitiveControl counting the intervals it is evaluated on."""

    def __init__(self, F):
        super().__init__(F)
        self.evals = 0

    def eval_one(self, c, d):
        self.evals += 1
        return super().eval_one(c, d)

    def eval_many(self, cs, ds):
        self.evals += len(cs)
        return super().eval_many(cs, ds)


def _certify_against_lone_builds(zeros):
    """hk_integrate at eps 0.1 next to two lone builds of its seeds.

    Returns the lone constructions, the gauge points the certified call and
    the lone builds evaluated, and the control evaluations of the certified
    call and of each lone build."""
    eps = 0.1
    f = lambda x: 3.0 * x * x
    gauge, seen = _counted_gauge(zeros)
    control = _CountedControl(lambda x: x ** 3)
    res = hk_integrate(f, as_schedule(gauge, control=control), eps,
                       vectorized=True, keep_families=True)
    n_certify = len(seen)
    evals = [control.evals]
    lone = []
    for t, z in _SEEDS:
        lone.append(howard_cousin_family(gauge.host, gauge, control, eps / 4.0,
                                         tag_order=t, zero_order=z,
                                         f_weight=f if zeros else None,
                                         eps_weight=eps / 2.0))
        evals.append(control.evals - sum(evals))
    for got, want in zip(res.certificate.families, lone):
        _assert_same_construction(got, want)
    cert = res.certificate
    assert (cert.sum1, cert.sum2) == tuple(
        riemann_sum(f, fc.partition) for fc in lone)
    assert res.partial_sums == ((eps / 4.0, cert.sum1), (eps / 4.0, cert.sum2))
    return lone, seen[:n_certify], seen[n_certify:], evals


@pytest.mark.parametrize("zeros", [(), (0.4,)])
def test_hk_integrate_seeds_share_one_bisection(zeros):
    lone, certified, lone_seen, _evals = _certify_against_lone_builds(zeros)
    # no point is evaluated twice across both seeds ...
    assert len(certified) == len(set(certified))
    # ... where the two lone builds evaluate nearly every point twice
    assert set(lone_seen) == set(certified)
    assert len(lone_seen) > 1.9 * len(certified)


def test_hk_integrate_seeds_share_one_carve():
    # one zero: both seeds carve with the same budgets, so the second seed
    # takes the first one's carve and searches none of its own; it only
    # evaluates its carve once more for its remainder
    lone, _certified, _lone_seen, evals = _certify_against_lone_builds((0.4,))
    certified, lone_left, lone_right = evals
    assert lone_left == lone_right > 100
    assert certified == lone_left + lone[1].carves.n


def test_hk_integrate_seeds_on_different_segments_bisect_alone():
    # reversed carve budgets around two zeros give the seeds different
    # carves and segments; each is searched and bisected on its own and
    # certifies to the same bits
    lone, _certified, _lone_seen, evals = _certify_against_lone_builds(
        (0.3, 0.7))
    assert lone[0].carves.lefts.tolist() != lone[1].carves.lefts.tolist()
    certified, lone_left, lone_right = evals
    assert certified == lone_left + lone_right


def _record_interval_builds(monkeypatch):
    """The constructions the interval integrators build, in build order."""
    built = []

    def recording(*args, **kwargs):
        built.append(howard_cousin_family(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hk_core, "howard_cousin_family", recording)
    monkeypatch.setattr(interval_charges, "howard_cousin_family", recording)
    return built


def test_seed_store_does_not_outlive_the_call(monkeypatch):
    # with a zero, the store also holds a carve and, in it, the control;
    # the builds go too, whether the call returns or raises
    built = _record_interval_builds(monkeypatch)
    integrators = (
        (lambda f, sched, eps: hk_integrate(f, sched, eps), 2),
        (lambda f, sched, eps: full_family_integrate(
            f, sched.control, sched, eps, [0.2, 0.1]), 3),
    )
    for integrate, n_builds in integrators:
        for zeros, eps, fails in (((), 0.1, False), ((), 1e-12, True),
                                  ((0.4,), 0.1, False),
                                  ((0.4,), 1e-12, True)):
            gauge, _seen = _counted_gauge(zeros)
            control = PrimitiveControl(lambda x: x ** 3)
            try:
                out = integrate(lambda x: 3.0 * x * x,
                                as_schedule(gauge, control=control), eps)
            except CauchyFail as exc:
                out = exc
            assert isinstance(out, CauchyFail) == fails
            builds = [weakref.ref(fc) for fc in built]
            assert len(builds) == n_builds
            del built[:]
            gc.collect()
            # gone while the result, or the error with its traceback, is held
            assert out is not None
            assert [ref() for ref in builds] == [None] * n_builds
            refs = [weakref.ref(gauge), weakref.ref(control)]
            del gauge, control, out
            gc.collect()
            assert [ref() for ref in refs] == [None, None]


# ---------------------------------------------------------------------------
# one bisection pass per construction

def _segments(fc):
    """The segments between a construction's carves, as it bisects them."""
    a, b = fc.family.host
    ends = [a] + [x for cd in zip(fc.carves.lefts.tolist(),
                                  fc.carves.rights.tolist()) for x in cd] + [b]
    return [(c, d) for c, d in zip(ends[0::2], ends[1::2]) if c < d]


def _per_segment(fc, gauge, tag_order, **budgets):
    """The construction's family as a loop of lone per-segment partitions."""
    parts = [cousin_partition(seg, gauge, tag_order=tag_order, **budgets)
             for seg in _segments(fc)]
    return TaggedFamily1D(fc.family.host, [], [], []).merged(*parts)


def _assert_same_family(got, want):
    for attr in ("lefts", "rights", "tags"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()


def _one_pass_case(name):
    """(gauge, control, integrand, eps) of a multi-segment construction."""
    if name == "sqsin":
        pair = gallery.square_sine_pair()
        sched = ftc_schedule(pair["F"], pair["Fprime"], [0.0], (-0.9, 0.8))
        return sched.gauge(1e-2), sched.control, pair["Fprime"], 1e-2
    d = gallery.dirichlet(int(name[-1]))
    return d["schedule"].gauge(1e-3), d["schedule"].control, d["fn"], 1e-3


# every seed, in an order where a right-first build in a seed store finds
# both segments a left-first build left there and segments it did not
_ALL_SEEDS = (("left", "declared"), ("right", "reversed"),
              ("left", "reversed"), ("right", "declared"))


def _store(shared):
    return hk_core._shared_seeds() if shared else contextlib.nullcontext()


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "seed_store"])
@pytest.mark.parametrize("name", ["dirichlet5", "dirichlet6", "dirichlet7",
                                  "sqsin"])
def test_one_pass_build_matches_per_segment_partitions(name, shared,
                                                      monkeypatch):
    gauge, control, f, eps = _one_pass_case(name)
    hosts = []
    monkeypatch.setattr(hk_core, "cousin_partition",
                        lambda host, *a, **k: hosts.append(host)
                        or cousin_partition(host, *a, **k))
    built = []
    with _store(shared):
        for t, z in _ALL_SEEDS:
            del hosts[:]
            fc = howard_cousin_family(gauge.host, gauge, control, eps / 4.0,
                                      tag_order=t, zero_order=z,
                                      f_weight=f, eps_weight=eps / 2.0)
            # one call on the list of the construction's segments
            assert hosts == [_segments(fc)]
            built.append((t, fc))
    for tag_order, fc in built:
        assert len(_segments(fc)) >= 2
        want = _per_segment(fc, gauge, tag_order)
        _assert_same_family(fc.family, want)
        _assert_same_family(cousin_partition(_segments(fc), gauge,
                                             tag_order=tag_order), want)


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "seed_store"])
def test_one_pass_build_with_no_segment_left(shared):
    # the null control lets each Dirichlet carve fill its window, so the
    # carves cover the host and nothing is bisected
    d = gallery.dirichlet(7)
    gauge, control = d["schedule"].gauge(1e-3), d["schedule"].control
    with _store(shared):
        for t, z in _ALL_SEEDS:
            fc = howard_cousin_family(gauge.host, gauge, control, 2.5e-4,
                                      tag_order=t, zero_order=z)
            assert fc.family.n == 0 and fc.partition.is_partition
    res = full_family_integrate(d["fn"], control, d["schedule"], 1e-3)
    assert res.value == 0.0 and res.certificate.sizes == (0, 0)


def test_one_pass_gauge_calls_bounded_by_depth():
    # one gauge batch per candidate column and depth for the whole host,
    # where a loop over its 18 segments makes one per segment; alone, the
    # pass evaluates exactly the points the loop evaluates
    d = gallery.dirichlet(7)
    plain = d["schedule"].gauge(1e-3)
    calls = []

    def counted(xs):
        calls.append(np.asarray(xs, dtype=float).tolist())
        return plain.fn(xs)

    gauge = Gauge(plain.a, plain.b, counted, plain.zero_set, name=plain.name)
    for shared in (False, True):
        with _store(shared):
            del calls[:]
            fc = howard_cousin_family(gauge.host, gauge, d["schedule"].control,
                                      2.5e-4, f_weight=d["fn"], eps_weight=5e-4)
        segs = _segments(fc)
        assert len(segs) == 18
        A = np.array([c for c, _d in segs])
        widths = np.array([d_ - c for c, d_ in segs])
        seg = np.searchsorted(A, fc.family.lefts, side="right") - 1
        depth = np.rint(np.log2(widths[seg] / fc.family.widths)).astype(int)
        assert len(calls) <= 4 * (depth.max() + 1)
        if not shared:
            one_pass = sorted(x for xs in calls for x in xs)
            del calls[:]
            _per_segment(fc, gauge, "left")
            assert one_pass == sorted(x for xs in calls for x in xs)
            assert len(calls) > 4 * (depth.max() + 1)


def _vee(xs):
    return np.minimum(0.01, np.abs(np.asarray(xs, dtype=float) - 0.5))


# the carve around 0.5 under PrimitiveControl(x) at tau 0.1 leaves the two
# segments [0, c] and [d, 1]
_X = PrimitiveControl(lambda x: x)


def test_node_budget_counts_per_segment():
    gauge = Gauge(0.0, 1.0, _vee, (0.5,), name="vee")
    fc = howard_cousin_family((0.0, 1.0), gauge, _X, 0.1)
    # a bisection tree with n leaves has 2n - 1 nodes
    nodes = [2 * cousin_partition(seg, gauge).n - 1 for seg in _segments(fc)]
    assert len(nodes) == 2 and max(nodes) < sum(nodes)
    within = howard_cousin_family((0.0, 1.0), gauge, _X, 0.1,
                                  max_nodes=max(nodes))
    _assert_same_family(within.family, fc.family)
    with pytest.raises(DepthExceeded, match="^" + re.escape(
            f"vee: node budget {max(nodes) - 1} exhausted at depth ")):
        howard_cousin_family((0.0, 1.0), gauge, _X, 0.1,
                             max_nodes=max(nodes) - 1)


def _per_segment_error(gauge, segs, **kw):
    """The error a loop of lone per-segment partitions raises."""
    with pytest.raises(Exception) as info:
        for seg in segs:
            cousin_partition(seg, gauge, **kw)
    return info.value


@pytest.mark.parametrize("failing", ["left", "right", "both"])
def test_one_pass_raises_the_leftmost_segments_error(failing):
    # the left segment needs depth 16 on [0.1, 0.2]; the right one runs
    # out of 3000 nodes at depth 11, before the left one reaches depth 12
    def width(xs):
        xs = np.asarray(xs, dtype=float)
        w = _vee(xs)
        if failing != "right":
            w = np.where((0.1 <= xs) & (xs <= 0.2), 1e-5, w)
        if failing != "left":
            w = np.where(xs > 0.5, 1e-6, w)
        return w

    gauge = Gauge(0.0, 1.0, width, (0.5,), name="steep")
    segs = _segments(howard_cousin_family((0.0, 1.0), Gauge(0.0, 1.0, _vee, (0.5,)),
                                          _X, 0.1))
    budgets = {"max_depth": 12, "max_nodes": 3000}
    for shared in (False, True):
        for tag_order in ("left", "right"):
            want = _per_segment_error(gauge, segs, tag_order=tag_order,
                                      **budgets)
            assert isinstance(want, DepthExceeded)
            assert ("max depth 12" in str(want)) == (failing != "right")
            with _store(shared), pytest.raises(DepthExceeded) as info:
                howard_cousin_family((0.0, 1.0), gauge, _X, 0.1,
                                     tag_order=tag_order, **budgets)
            assert str(info.value) == str(want)


@pytest.mark.parametrize("tag_order", ["left", "right"])
def test_one_pass_gauge_error_is_the_loops(tag_order):
    # an undeclared zero at 1.0 sits in the right segment's first batch;
    # a loop over the segments meets the left segment's own failure first:
    # the zero at 0.0 (right-first, its far end), or the depth budget
    segs = _segments(howard_cousin_family(
        (0.0, 1.0), Gauge(0.0, 1.0, _vee, (0.5,)), _X, 0.1))
    for zeros, max_depth, error, message in (
            ((0.0, 1.0), 64, InvalidGauge,
             "ends vanishes at undeclared point 0.0"),
            ((1.0,), 12, DepthExceeded, "ends: max depth 12 reached near ")):
        def width(xs):
            xs = np.asarray(xs, dtype=float)
            w = np.where((0.1 <= xs) & (xs <= 0.2), 1e-5, _vee(xs))
            return np.where(np.isin(xs, zeros), 0.0, w)

        gauge = Gauge(0.0, 1.0, width, (0.5,), name="ends")
        want = _per_segment_error(gauge, segs, tag_order=tag_order,
                                  max_depth=max_depth)
        assert type(want) is error and str(want).startswith(message)
        for shared in (False, True):
            with _store(shared), pytest.raises(error) as info:
                howard_cousin_family((0.0, 1.0), gauge, _X, 0.1,
                                     tag_order=tag_order, max_depth=max_depth)
            assert str(info.value) == str(want)


def _primitive_control_loop(F, cs, ds):
    # the control as two F calls per interval
    return [float(F(d)) - float(F(c)) for c, d in zip(cs, ds)]


def _counted_cube(x):
    _counted_cube.calls += 1
    return np.sin(3.0 * np.asarray(x, dtype=float)) * np.asarray(x) ** 3


@pytest.mark.parametrize("F, calls", [
    (lambda x: math.sin(3.0 * x) * x ** 3, None),    # scalars only
    (_counted_cube, 1),                              # arrays
], ids=["scalar_only", "array"])
def test_primitive_control_one_F_call(F, calls):
    control = PrimitiveControl(F)
    rng = np.random.default_rng(7)
    # 600 intervals take the array sum's exponent buckets
    for n in (1, 7, 600):
        cuts = np.sort(rng.uniform(-1.0, 2.0, 2 * n))
        cs, ds = cuts[0::2], cuts[1::2]
        want = _primitive_control_loop(F, cs, ds)
        _counted_cube.calls = 0
        got = control.eval_many(cs, ds)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        intervals = list(zip(cs.tolist(), ds.tolist()))
        assert control.union_value(intervals).hex() == \
            compensated_sum(want).hex()
        if calls is not None:
            assert _counted_cube.calls == 2 * calls
    assert control.union_value([]) == 0.0


def test_as_schedule_takes_each_schedule_form():
    control = PrimitiveControl(lambda x: x)
    fixed = (Gauge.uniform(0.0, 1.0, 0.1),
             AmbientGauge(lambda P: np.full(np.shape(P)[:-1], 0.1)))
    for gauge in fixed:
        sched = as_schedule(gauge, control=control)
        assert isinstance(sched, Schedule)
        assert sched.gauge(1e-3) is gauge and sched.control is control
    sched = as_schedule(lambda eps: Gauge.uniform(0.0, 1.0, eps), control)
    assert isinstance(sched, Schedule) and sched.control is control
    assert sched.gauge(0.25)(0.5) == 0.25
    made = uniform_schedule(0.0, 1.0, 0.1)
    assert as_schedule(made, control=control) is made
    assert made.control is None


class _DuckSchedule:
    """A schedule-shaped object that is not a Schedule."""

    def gauge(self, eps):
        return Gauge.uniform(0.0, 1.0, eps)

    def tau(self, eps):
        return eps / 4.0


@pytest.mark.parametrize("obj", [0.1, None, "uniform:0.1", _DuckSchedule()])
def test_as_schedule_rejects_anything_else(obj):
    with pytest.raises(TypeError):
        as_schedule(obj)


# ---------------------------------------------------------------------------
# Riemann sums

def test_riemann_sum_additive_over_merge():
    g = Gauge.uniform(0.0, 1.0, 0.1)
    left = cousin_partition((0.0, 0.5), g)
    right = cousin_partition((0.5, 1.0), g)
    f = lambda x: x * x - 0.3
    merged = TaggedFamily1D(
        (0.0, 1.0),
        np.concatenate([left.lefts, right.lefts]),
        np.concatenate([left.rights, right.rights]),
        np.concatenate([left.tags, right.tags]))
    assert merged.is_partition
    assert riemann_sum(f, merged) == pytest.approx(
        riemann_sum(f, left) + riemann_sum(f, right), abs=1e-15)


def test_riemann_sum_linear_in_f():
    g = Gauge.uniform(0.0, 1.0, 0.07)
    part = cousin_partition((0.0, 1.0), g)
    f = lambda x: math.sin(3.0 * x)
    h = lambda x: x
    combo = riemann_sum(lambda x: 2.0 * f(x) + h(x), part)
    assert combo == pytest.approx(2.0 * riemann_sum(f, part)
                                  + riemann_sum(h, part), rel=1e-12)


# ---------------------------------------------------------------------------
# integrand evaluation: one path for scalar-only and array integrands, and
# UndefinedTag where an integrand fails at a tag

# eight intervals of width 1/8 on [0, 1]; the left seed tags every left end,
# 0.5 among them
_EIGHTHS = cousin_partition((0.0, 1.0), Gauge.uniform(0.0, 1.0, 0.13))
_LINE = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)])
_LINE_FAMILY = howard_cousin_current(
    _LINE, uniform_current_schedule(0.13).gauge(1.0), mass_charge(), 1.0)


def _on_line(f):
    """f of x as an integrand on the points (x, 0) of the unit segment."""
    return lambda p: f(np.asarray(p, dtype=float)[..., 0])


# each entry point as f -> value, and how it names the tag x = 0.5
_ENTRIES = {
    "riemann_sum": (lambda f: riemann_sum(f, _EIGHTHS), "0.5"),
    "saks_henstock_audit": (
        lambda f: saks_henstock_audit(f, lambda x: 0.5 * x * x, _EIGHTHS),
        "0.5"),
    "hk_integrate": (
        lambda f: hk_integrate(f, uniform_schedule(0.0, 1.0, 0.13), 0.25).value,
        "0.5"),
    # the gauge vanishes at 0.5, so 0.5 tags a carve pair whose width the
    # integrand there bounds
    "hk_integrate_carved": (
        lambda f: hk_integrate(f, proportional_schedule(
            0.0, 1.0, 0.5, 0.5, control=PrimitiveControl(lambda x: x)),
            0.25).value,
        "0.5"),
    "hkp_riemann_sum": (
        lambda f: hkp_riemann_sum(_on_line(f), _LINE_FAMILY), "[0.5, 0.0]"),
}


def _raises_at_half(x):
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.5):
        raise KeyError("no value at 0.5")
    return np.sin(3.0 * x) + x


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_integrand_that_raises_is_an_undefined_tag(entry):
    run, tag = _ENTRIES[entry]
    with pytest.raises(UndefinedTag, match="^" + re.escape(
            f"integrand undefined at tag {tag}") + "$") as info:
        run(_raises_at_half)
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_non_finite_integrand_is_an_undefined_tag(entry, bad):
    run, tag = _ENTRIES[entry]
    with pytest.raises(UndefinedTag, match="^" + re.escape(
            f"integrand undefined at tag {tag}") + "$") as info:
        run(lambda x: np.where(np.asarray(x) == 0.5, bad, x))
    assert info.value.__cause__ is None


def _primitive_raises_at_half(x):
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.5):
        raise KeyError("no value at 0.5")
    return 0.5 * x * x


_F_AT_HALF = "^" + re.escape("primitive F undefined at interval end 0.5") + "$"


def test_audit_primitive_that_raises_names_its_point():
    with pytest.raises(UndefinedTag, match=_F_AT_HALF) as info:
        saks_henstock_audit(lambda x: x, _primitive_raises_at_half, _EIGHTHS)
    assert isinstance(info.value.__cause__, KeyError)


def test_audit_non_finite_primitive_names_its_point():
    with pytest.raises(UndefinedTag, match=_F_AT_HALF) as info:
        saks_henstock_audit(
            lambda x: x,
            lambda x: np.where(np.asarray(x) == 0.5, np.nan, 0.5 * x * x),
            _EIGHTHS)
    assert info.value.__cause__ is None


def test_riemann_sum_and_audit_match_the_per_tag_loop():
    # the per-tag loops both functions ran for a scalar integrand
    f, F = (lambda x: np.sin(3.0 * x) + x), (lambda x: 0.5 * x * x)
    part = cousin_partition((0.0, 1.0), Gauge.uniform(0.0, 1.0, 0.01))
    assert riemann_sum(f, part) == compensated_sum(
        [float(f(t)) * (r - l) for l, r, t in part])
    assert saks_henstock_audit(f, F, part) == compensated_sum(
        [abs(float(f(t)) * (r - l) - (float(F(r)) - float(F(l))))
         for l, r, t in part])


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_scalar_only_integrand_matches_its_array_twin(entry):
    # an integrand that raises on arrays is called point by point, to the
    # same bits as its array twin gives in one call
    run, _tag = _ENTRIES[entry]
    twin = lambda x: np.sin(3.0 * x) + x

    def scalar_only(x):
        if np.ndim(x) != 0:
            raise TypeError("one point at a time")
        return float(twin(x))

    want = run(twin)
    assert run(scalar_only) == want
    assert math.isfinite(want) and want != 0.0


# ---------------------------------------------------------------------------
# certified integrals

def test_hk_integrate_linear_exact_midpoint():
    res = hk_integrate(lambda x: x, uniform_schedule(0.0, 1.0, 1e-3), 1e-3,
                       vectorized=True)
    assert res.value == 0.5
    assert res.epsilon < 1e-3


def test_hk_integrate_polynomial():
    res = hk_integrate(lambda x: 3.0 * x * x, uniform_schedule(0.0, 1.0, 1e-4),
                       1e-3, vectorized=True)
    assert abs(res.value - 1.0) < 1e-3


def test_hk_integrate_trig_closed_form():
    res = hk_integrate(np.sin, uniform_schedule(0.0, math.pi, 1e-3), 5e-3,
                       vectorized=True)
    assert abs(res.value - 2.0) < 5e-3


def test_hk_integrate_converges_with_mesh():
    errs = []
    for h in (1e-1, 1e-2, 1e-3):
        res = hk_integrate(lambda x: math.exp(x), uniform_schedule(0.0, 1.0, h),
                           1.0)
        errs.append(abs(res.value - (math.e - 1.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_hk_integrate_cauchyfail_on_tight_eps():
    with pytest.raises(CauchyFail) as info:
        hk_integrate(lambda x: x, uniform_schedule(0.0, 1.0, 1e-2), 1e-9)
    # one (tau, sum) row per seed, tau being the schedule's eps/4
    rows = info.value.partial_sums
    assert len(rows) == 2
    assert [t for t, _s in rows] == [1e-9 / 4.0] * 2
    assert [s for _t, s in rows] == [info.value.sum1, info.value.sum2]
    # a held exception keeps its traceback's frames, but not the two
    # constructions, alive
    held = []
    tb = info.value.__traceback__
    while tb is not None:
        held += tb.tb_frame.f_locals.values()
        tb = tb.tb_next
    assert not any(isinstance(v, FamilyConstruction) for v in held)


def test_hk_integrate_rejects_bad_eps():
    with pytest.raises(ValueError):
        hk_integrate(lambda x: x, uniform_schedule(0.0, 1.0, 0.1), 0.0)


def test_tau_budgets_must_be_positive_and_finite():
    sched = uniform_schedule(0.0, 1.0, 0.1)
    for tau in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=re.escape(
                f"tau {tau!r} must be positive and finite")):
            full_family_integrate(lambda x: x, None, sched, 0.1,
                                  tau_schedule=tau)
    seg = Current1D([(Curve(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)])
    with pytest.raises(ValueError) as info:
        hkp_integrate(lambda p: 1.0, seg, mass_charge(),
                      uniform_current_schedule(0.1), 0.1, tau_schedule=[-1.0])
    assert str(info.value) == "tau -1.0 must be positive and finite"
    assert info.traceback[-1].name == "_tau_list"


def test_finite_set_change_does_not_move_value():
    # a gauge vanishing on the changed points keeps their contribution
    # inside the weighted carve budget
    bad = {0.3, 0.7}

    def f(x):
        return 100.0 if x in bad else x

    def sched(eps):
        return Gauge(0.0, 1.0,
                     lambda x: min(eps / 4.0, abs(x - 0.3), abs(x - 0.7)),
                     zero_set=(0.3, 0.7))

    from gaugeint import as_schedule
    res = hk_integrate(f, as_schedule(sched,
                                      control=PrimitiveControl(lambda x: 0.5 * x * x)),
                       1e-3)
    assert abs(res.value - 0.5) < 1e-3


# ---------------------------------------------------------------------------
# the pathological primitive pipeline

@pytest.fixture(scope="module")
def sqsin_runs(square_sine_pair):
    pair = square_sine_pair
    sched = ftc_schedule(pair["F"], pair["Fprime"],
                         list(pair["exceptional"]), pair["host"])
    runs = {}
    for eps in (1e-2, 1e-3):
        runs[eps] = hk_integrate(pair["Fprime"], sched, eps, vectorized=True,
                                 keep_families=True)
    return pair, runs


def test_ftc_pipeline_certifies_sin1(sqsin_runs):
    pair, runs = sqsin_runs
    for eps, res in runs.items():
        assert abs(res.value - pair["value"]) < 2.0 * eps
        assert res.epsilon < eps


def test_saks_henstock_audit_within_bound(sqsin_runs):
    pair, runs = sqsin_runs
    for eps, res in runs.items():
        for fc in res.certificate.families:
            audit = saks_henstock_audit(pair["Fprime"], pair["F"],
                                        fc.partition, vectorized=True)
            assert audit < 2.0 * eps


def test_certificate_audit_is_the_largest_covered_family_audit(sqsin_runs):
    pair, runs = sqsin_runs
    for eps, res in runs.items():
        audits = [saks_henstock_audit(pair["Fprime"], pair["F"], fc.family)
                  for fc in res.certificate.families]
        assert res.certificate.audit == max(audits)
        assert res.certificate.audit < eps / 2.0


def test_certificate_audit_is_none_without_a_proof_gauge():
    res = hk_integrate(lambda x: x, uniform_schedule(0.0, 1.0, 0.1), 0.1)
    assert res.certificate.audit is None
    ff = full_family_integrate(lambda x: x, None,
                               uniform_schedule(0.0, 1.0, 0.1), 0.1)
    assert ff.certificate.audit is None


def _mismatched_gauge():
    # widths from the pair (x, 1), which admits the whole host everywhere;
    # the pair carried is (x^2, 0), whose increments sum to 1 on any
    # partition of [0, 1] while its Riemann sums of 0 are 0
    gauge = ftc_gauge(lambda x: x, np.ones_like, [], 1e-2, (0.0, 1.0))
    object.__setattr__(gauge, "_ftc_pair", (lambda x: x * x, np.zeros_like))
    return gauge


def test_audit_fail_names_the_gauge_eps_and_worst_interval():
    message = ("ftc[eps=0.01]: Saks-Henstock audit 1.0 of the gauge's own "
               "primitive is not below eps/2 = 0.005 (eps 0.01); the "
               "interval [0.5, 1.0] tagged at 0.5 adds 0.75")
    with pytest.raises(AuditFail, match="^" + re.escape(message) + "$"):
        hk_integrate(lambda x: 1.0, _mismatched_gauge(), 1e-2)
    with pytest.raises(AuditFail, match="^" + re.escape(message) + "$"):
        full_family_integrate(lambda x: 1.0, None, _mismatched_gauge(), 1e-2)
    # where the seeds' sums are also apart, CauchyFail comes first
    with pytest.raises(CauchyFail):
        hk_integrate(lambda x: x, _mismatched_gauge(), 1e-2)


@pytest.mark.parametrize("host, eps", [((-0.2, 0.6), 1e-3),
                                       ((-0.97, 0.691), 1e-2)])
def test_ftc_pipeline_certifies_defect_list_hosts(host, eps):
    F, Fp = gallery.square_sine, gallery.square_sine_prime
    res = hk_integrate(Fp, ftc_schedule(F, Fp, [0.0], host), eps)
    assert abs(res.value - (F(host[1]) - F(host[0]))) < eps
    assert res.certificate.audit < eps / 2.0


def test_saks_henstock_audit_on_subfamily(sqsin_runs):
    # the bound survives dropping pairs from the partition
    pair, runs = sqsin_runs
    res = runs[1e-2]
    part = res.certificate.families[0].partition
    keep = np.arange(part.n) % 3 == 0
    fam = TaggedFamily1D(part.host, part.lefts[keep], part.rights[keep],
                         part.tags[keep], validate=False)
    audit = saks_henstock_audit(pair["Fprime"], pair["F"], fam,
                                vectorized=True)
    assert audit < 2.0 * 1e-2


def test_howard_cousin_remainder_under_tau(square_sine_pair):
    pair = square_sine_pair
    eps = 1e-2
    tau = eps / 4.0
    sched = ftc_schedule(pair["F"], pair["Fprime"],
                         list(pair["exceptional"]), pair["host"])
    gauge = sched.gauge(eps)
    fc = howard_cousin_family(pair["host"], gauge, sched.control, tau)
    # remainder is exactly the carve union; evaluate the control on it
    carve_rows = [(float(l), float(r)) for l, r in
                  zip(fc.carves.lefts, fc.carves.rights)]
    val = abs(sched.control.union_value(carve_rows))
    assert val == fc.remainder_value or val == pytest.approx(
        fc.remainder_value, abs=1e-15)
    assert val < tau
    # carves + covered family partition the host
    assert fc.partition.is_partition


def test_ftc_gauge_search_fail_names_the_gauge(square_sine_pair):
    # within 1e-9 of the exceptional point F' oscillates too fast for any
    # radius above the floor; 0.2518768310546875 is an ordinary point
    pair = square_sine_pair
    gauge = ftc_schedule(pair["F"], pair["Fprime"], list(pair["exceptional"]),
                         pair["host"]).gauge(1e-3)
    assert gauge(0.2518768310546875) == 2.0 ** -17
    with pytest.raises(SearchFail, match=re.escape(
            "ftc[eps=0.001]: no admissible radius above the floor at "
            "x = 1e-09")):
        gauge.eval_many([1e-9])


def test_ftc_gauge_oscillation_fail_names_the_gauge():
    # F jumps at its exceptional point, so no width tames the oscillation
    zero = lambda x: np.zeros_like(x)
    with pytest.raises(SearchFail, match="^" + re.escape(
            "ftc[eps=0.01]: oscillation of F at 0.0 exceeds 0.00125 at the "
            "floor width")):
        ftc_gauge(np.sign, zero, [0.0], 1e-2, (-1.0, 1.0))
    with pytest.raises(SearchFail, match="^jumpy: oscillation of F at 0.0 "):
        ftc_gauge(np.sign, zero, [0.0], 1e-2, (-1.0, 1.0), name="jumpy")


def test_ftc_gauge_name_prints_a_numpy_eps_as_a_plain_float():
    zero = lambda x: np.zeros_like(x)
    gauge = ftc_gauge(np.sign, zero, [0.0], np.float64(1e-2), (-1.0, 1.0),
                      zero_at_exceptional=True)
    assert gauge.name == "ftc[eps=0.01]"
    with pytest.raises(SearchFail, match="^" + re.escape(
            "ftc[eps=0.01]: oscillation of F at 0.0 ")):
        ftc_gauge(np.sign, zero, [0.0], np.float64(1e-2), (-1.0, 1.0))


# ftc_gauge's widths at ordinary points, each probe checked in one shot on
# the pair x +- r, F(x) and F'(x) recomputed on every probe.  NaN where no
# radius above the floor is admissible, where the gauge raises SearchFail.
_REFERENCE_FAN = np.array([1.0, -1.0])


def _reference_ftc_widths(F, Fprime, eps, host, xs):
    a, b = host
    L = b - a
    coeff = (eps / 2.0) / L

    def admissible_many(xs, ks):
        r = L * np.ldexp(1.0, -ks.astype(np.int64))
        ys = xs[:, None] + r[:, None] * _REFERENCE_FAN[None, :]
        np.clip(ys, a, b, out=ys)
        dy = ys - xs[:, None]
        Fx = np.asarray(F(xs), dtype=float)
        Fpx = np.asarray(Fprime(xs), dtype=float)
        Fy = np.asarray(F(ys), dtype=float)
        lin = Fpx[:, None] * dy
        rem = np.abs(Fy - Fx[:, None] - lin)
        noise = 64.0 * np.finfo(float).eps * (
            np.abs(Fx)[:, None] + np.abs(Fy) + np.abs(lin))
        ok = (rem < coeff * np.abs(dy)) | (rem <= noise) | (dy == 0.0)
        return np.all(ok, axis=1)

    x = np.asarray(xs, dtype=float)
    n = x.shape[0]
    lo = np.full(n, -1, dtype=np.int64)
    hi = np.full(n, -1, dtype=np.int64)
    prev = np.full(n, -1, dtype=np.int64)
    unresolved = np.ones(n, dtype=bool)
    for k in (0, 1, 2, 4, 8, 16, 32, 39):
        if not unresolved.any():
            break
        sel = np.nonzero(unresolved)[0]
        ok = admissible_many(x[sel], np.full(sel.shape, k, dtype=np.int64))
        hit = sel[ok]
        hi[hit] = k
        lo[hit] = prev[hit]
        unresolved[hit] = False
        prev[sel[~ok]] = k
    hi[unresolved] = lo[unresolved] = 0
    while True:
        active = (hi - lo) > 1
        if not active.any():
            break
        mid = (lo + hi) // 2
        ok = admissible_many(x[active], mid[active])
        hi[active] = np.where(ok, mid[active], hi[active])
        lo[active] = np.where(ok, lo[active], mid[active])
    return np.where(unresolved, np.nan, L * np.ldexp(1.0, -hi))


def _counted(fn, calls):
    def wrapped(x):
        calls.append(np.shape(x))
        return fn(x)
    return wrapped


def _seeded_points():
    """Seeded points of [0, 1], the square-sine host, and six near its ends."""
    return np.concatenate([
        np.random.default_rng(20).uniform(0.0, 1.0, 300),
        [1e-9, 3e-10, 7e-12, 1.0 - 1e-9, 1.0 - 4e-10, 1.0 - 1e-12]])


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_ftc_gauge_two_stage_fan_matches_one_shot_reference(square_sine_pair,
                                                            eps):
    pair = square_sine_pair
    F, Fp, host = pair["F"], pair["Fprime"], pair["host"]
    xs = _seeded_points()
    ref = _reference_ftc_widths(F, Fp, eps, host, xs)
    fails = np.isnan(ref)
    fp_calls = []
    gauge = ftc_gauge(F, _counted(Fp, fp_calls), [0.0], eps, host)
    assert gauge.eval_many(xs[~fails]).tobytes() == ref[~fails].tobytes()
    assert fp_calls == [((~fails).sum(),)]
    # the points within 1e-9 of 0 find no radius, with either fan check
    assert fails[-6:].tolist() == [True] * 3 + [False] * 3
    first = float(xs[fails][0])
    with pytest.raises(SearchFail, match=re.escape(
            f"no admissible radius above the floor at x = {first!r}")):
        gauge.eval_many(xs)


def test_ftc_gauge_bisection_skips_the_offsets_its_bracket_verified(
        square_sine_pair):
    pair = square_sine_pair
    F, Fp, host = pair["F"], pair["Fprime"], pair["host"]
    xs = _seeded_points()
    xs = xs[~np.isnan(_reference_ftc_widths(F, Fp, 1e-3, host, xs))]
    calls = []
    gauge = ftc_gauge(_counted(F, calls), Fp, [0.0], 1e-3, host)
    calls.clear()
    gauge.eval_many(xs)
    assert calls[0] == xs.shape
    fan_points = sum(math.prod(shape) for shape in calls[1:])
    # two points per probe on the pair x +- r
    assert fan_points <= 5_952


def _x32_sin(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = x[nz] ** 1.5 * np.sin(1.0 / x[nz])
    return out


def _x32_sin_prime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0.0
    r = np.sqrt(x[nz])
    out[nz] = 1.5 * r * np.sin(1.0 / x[nz]) - np.cos(1.0 / x[nz]) / r
    return out


@pytest.mark.parametrize("F, Fp, host, eps", [
    # a second primitive, x^(3/2) sin(1/x)
    (_x32_sin, _x32_sin_prime, (0.0, 1.0), 1e-3),
    # a host off [0, 1], read at both ends, where every fan clips
    (gallery.square_sine, gallery.square_sine_prime, (-0.3, 0.7), 1e-3),
    # a host of length L = 2**-20, radii L * 2**-k with k from 10 to 15,
    # offsets down to L * 2**-31
    (lambda x: np.sin(2.0 ** 24 * x),
     lambda x: 2.0 ** 24 * np.cos(2.0 ** 24 * x), (0.5, 0.5 + 2.0 ** -20),
     1e-2),
], ids=["x32_sin", "clipped_both_ends", "host_2^-20"])
def test_ftc_gauge_matches_one_shot_reference_on_other_hosts(F, Fp, host, eps):
    a, b = host
    L = b - a
    xs = np.concatenate([np.random.default_rng(21).uniform(a, b, 300),
                         [a, b, a + 1e-9 * L, b - 1e-9 * L,
                          a + 1e-6 * L, b - 1e-6 * L]])
    ref = _reference_ftc_widths(F, Fp, eps, host, xs)
    ok = ~np.isnan(ref)
    assert ok[-6:-4].all() and ok.sum() > 250
    gauge = ftc_gauge(F, Fp, [], eps, host)
    assert gauge.eval_many(xs[ok]).tobytes() == ref[ok].tobytes()


def test_ftc_gauge_invalid_gauge_comes_from_the_primitive_s_error():
    # the batch call raises, so each point is read alone, as a 0-d array
    def F(x):
        x = np.asarray(x, dtype=float)
        if np.any(x > 0.5):
            raise ZeroDivisionError("F undefined past 0.5")
        return x * x

    gauge = ftc_gauge(F, lambda x: 2.0 * np.asarray(x), [], 1e-2, (0.0, 1.0))
    with pytest.raises(InvalidGauge, match="^" + re.escape(
            "ftc[eps=0.01](0.25) raised") + "$") as info:
        gauge.eval_many([0.25, 0.75])
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    smooth = ftc_gauge(lambda x: x * x, lambda x: 2.0 * x, [], 1e-2,
                       (0.0, 1.0))
    assert smooth.fn(np.float64(0.25)).shape == ()
    assert float(smooth.fn(np.float64(0.25))) == smooth(0.25)


def test_ftc_gauge_second_stage_decides_on_a_narrow_bump():
    # The bump at 0.625 lies within r of x = 0.5 for every radius r >= 1/8,
    # but the pair x +- r never meets it: every point gets the whole host.
    # What the pair does not sample, the audit of the families the gauge
    # builds reads at the interval ends.
    F = lambda x: x + np.where(np.abs(x - 0.625) < 1e-9, 1.0, 0.0)
    Fp = lambda x: np.ones_like(x)
    xs = np.array([0.5, 0.25, 0.875])
    ref = _reference_ftc_widths(F, Fp, 1e-2, (0.0, 1.0), xs)
    assert ref.tolist() == [1.0, 1.0, 1.0]
    fp_calls = []
    gauge = ftc_gauge(F, _counted(Fp, fp_calls), [], 1e-2, (0.0, 1.0))
    assert gauge.eval_many(xs).tobytes() == ref.tobytes()
    assert fp_calls == [xs.shape]


def test_eval_points_square_batch_goes_point_by_point():
    P = np.array([[0.3, 0.4], [1.0, 2.0]])
    per_point = lambda p: p[0] ** 2 + p[1] ** 2
    got = _eval_points(per_point, P)
    assert got.tolist() == [per_point(p) for p in P]
    assert got.tolist() != per_point(P).tolist()
    # batch functions keep the bits of their batch call, square P or not
    batch_only = lambda Q: Q[:, 0] ** 2 - 3.0 * Q[:, 1]
    either = lambda Q: np.asarray(Q)[..., 0] ** 2 - 3.0 * np.asarray(Q)[..., 1]
    for Q in (P, np.array([[0.3, 0.4], [1.0, 2.0], [-0.7, 0.1]])):
        for f in (batch_only, either):
            assert _eval_points(f, Q).tobytes() == batch_only(Q).tobytes()


def test_carve_needs_control():
    g = Gauge(0.0, 1.0, lambda x: abs(x - 0.5), zero_set=(0.5,))
    with pytest.raises(InvalidGauge):
        howard_cousin_family((0.0, 1.0), g, None, 0.1)


def test_howard_cousin_family_rejects_unknown_zero_order():
    g = Gauge.uniform(0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="zero order"):
        howard_cousin_family((0.0, 1.0), g, None, 0.1, zero_order="sideways")


def test_carve_budget_failure_on_jump():
    # a unit jump at the zero point can never fit a small charge budget
    F = lambda x: 0.0 if x < 0.5 else 1.0
    g = Gauge(0.0, 1.0, lambda x: abs(x - 0.5), zero_set=(0.5,))
    with pytest.raises(ContinuityBudgetFail):
        howard_cousin_family((0.0, 1.0), g, PrimitiveControl(F), 0.01)


# ---------------------------------------------------------------------------
# AC* probing

def test_ac_star_devil_staircase_fails():
    # the staircase climbs its full height inside the Cantor windows: with
    # anchors refined along with the gauge the witness never shrinks
    dev = gallery.devil_staircase(levels=16)
    for k in (8, 10):
        anchors = dev["level_points"](k)
        g = Gauge.uniform(0.0, 1.0, 3.0 ** -k)
        assert ac_star_probe(dev["fn"], anchors, g) > 0.9


def test_ac_star_smooth_primitive_passes():
    # an absolutely continuous charge's family sums scale away with the
    # gauge: bounded by 2 * sum(anchor) * h here
    anchors = gallery.devil_staircase(levels=16)["level_points"](8)
    g8 = Gauge.uniform(0.0, 1.0, 3.0 ** -8)
    g10 = Gauge.uniform(0.0, 1.0, 3.0 ** -10)
    p8 = ac_star_probe(lambda x: x * x, anchors, g8)
    p10 = ac_star_probe(lambda x: x * x, anchors, g10)
    assert p8 < 2.0 * float(np.sum(anchors)) * 3.0 ** -8 + 1e-12
    assert p10 < 0.01
    assert p10 < p8 / 5.0


def _ac_star_scalar(F, null_set, gauge, trials, seed):
    """The one-anchor-at-a-time probe that ac_star_probe batches."""
    import random
    incr = F.eval_one if hasattr(F, "eval_one") else \
        (lambda c, d: float(F(d)) - float(F(c)))
    pts = sorted(float(y) for y in null_set)
    a, b = gauge.host
    rng = random.Random(seed)
    worst = 0.0
    for trial in range(trials):
        terms = []
        for i, y in enumerate(pts):
            left_room = (y - a) if i == 0 else 0.5 * (y - pts[i - 1])
            right_room = (b - y) if i == len(pts) - 1 else 0.5 * (pts[i + 1] - y)
            dy = gauge(y)
            if dy <= 0.0:
                continue
            ul = 1.0 if trial == 0 else rng.random()
            ur = 1.0 if trial == 0 else rng.random()
            wl = 0.999 * ul * min(0.5 * dy, left_room)
            wr = 0.999 * ur * min(0.5 * dy, right_room)
            if wl + wr <= 0.0:
                continue
            terms.append(abs(incr(y - wl, y + wr)))
        worst = max(worst, compensated_sum(terms))
    return worst


def test_ac_star_probe_matches_scalar_loop():
    dev = gallery.devil_staircase(levels=16)
    square = lambda x: x * x
    # oscillates at the scale of the widths, so the random trials, not the
    # full-width first one, set the maximum
    saw = lambda x: (x * 331.0) % 1.0
    anchors = dev["level_points"](5)
    uniform = Gauge.uniform(0.0, 1.0, 3.0 ** -5)
    # vanishes at one anchor, which then draws no widths
    zeroed = Gauge.proportional(0.0, 1.0, float(anchors[7]), 0.05)
    for F in (dev["fn"], square, PrimitiveControl(square), saw):
        for g in (uniform, zeroed):
            for seed in (0, 1, 12345):
                got = ac_star_probe(F, anchors, g, trials=6, seed=seed)
                ref = _ac_star_scalar(F, anchors, g, 6, seed)
                assert got.hex() == ref.hex()


def _pointwise_lip_loop(F, x, radii, host=None):
    # pointwise_lip as a loop over the 32 offsets, one F call each
    r = min(radii)
    Fx = float(F(x))
    best = 0.0
    for k in range(1, 17):
        for sign in (1.0, -1.0):
            y = x + sign * r * (k / 16.0)
            if host is not None:
                y = min(host[1], max(host[0], y))
            dy = y - x
            if dy == 0.0:
                continue
            ratio = abs(float(F(y)) - Fx) / abs(dy)
            if ratio > best:
                best = ratio
    return best


def test_pointwise_lip_matches_the_loop():
    rng = np.random.default_rng(4)
    # np.sin and np.sqrt give the same bits on scalars and arrays;
    # math.exp takes no arrays, so it is called point by point
    Fs = [np.sin, lambda x: math.exp(x), lambda x: np.sqrt(np.abs(x - 0.2)),
          lambda x: np.where(np.asarray(x) > 0.3, np.nan, x)]
    for F in Fs:
        for _ in range(50):
            x = float(rng.uniform(-1.0, 1.0))
            r = float(10.0 ** rng.uniform(-8.0, 0.0))
            host = (x - float(rng.uniform(0.0, r)), x + 0.5 * r)
            for h in (None, host, (x, x + 1.0)):
                want = _pointwise_lip_loop(F, x, [r], h)
                assert pointwise_lip(F, x, [r], h) == want


def test_pointwise_lip_shrinks_to_the_slope():
    # |x^2 - 1| / |x - 1| = |x + 1| on offsets up to r: at most 2 + r, and
    # reached on the largest positive offset
    F = lambda x: x * x
    est = [pointwise_lip(F, 1.0, [r]) for r in (0.5, 0.1, 0.01)]
    assert est == pytest.approx([2.5, 2.1, 2.01], rel=1e-12)
    # the smallest radius of the schedule is the one used
    assert pointwise_lip(F, 1.0, [0.5, 0.01]) == est[2]
    # clipping to the host keeps samples on [0, 1]: left offsets only
    assert pointwise_lip(F, 1.0, [0.5], host=(0.0, 1.0)) == \
        pytest.approx(2.0 - 0.5 / 16.0, rel=1e-12)
    with pytest.raises(ValueError):
        pointwise_lip(F, 1.0, [0.0])


# ---------------------------------------------------------------------------
# property: random cubics against their antiderivative

@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_hk_integrate_matches_antiderivative(c0, c1, c2):
    f = lambda x: c0 + c1 * x + 3.0 * c2 * x * x
    F = lambda x: c0 * x + 0.5 * c1 * x * x + c2 * x ** 3
    eps = 1e-3
    res = hk_integrate(f, uniform_schedule(0.0, 1.0, 1e-4), eps)
    assert abs(res.value - (F(1.0) - F(0.0))) < eps
