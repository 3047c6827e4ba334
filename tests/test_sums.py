import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gaugeint import (TaggedFamily1D, compensated_sum, exact_sum,
                      ftc_schedule, gallery, hk_integrate, riemann_sum,
                      saks_henstock_audit)
from gaugeint.sums import _CHUNK, _KERNEL_MIN, _bucket_sum


def test_exact_sum_is_correctly_rounded():
    # fsum semantics: the rounding error of the naive loop disappears
    terms = [1.0, 1e100, 1.0, -1e100] * 100
    assert exact_sum(terms) == 200.0


def test_compensated_sum_recovers_small_terms():
    # classic Kahan case: naive summation loses the 1.0 entirely
    terms = [1e16, 1.0, -1e16]
    naive = (1e16 + 1.0) - 1e16
    assert naive == 0.0
    assert compensated_sum(terms) == 1.0


def test_compensated_sum_empty_and_single():
    assert compensated_sum([]) == 0.0
    assert compensated_sum([3.5]) == 3.5


def test_compensated_sum_fixed_order_is_deterministic():
    terms = [math.sin(k) * 10.0 ** ((k % 7) - 3) for k in range(1000)]
    assert compensated_sum(terms) == compensated_sum(list(terms))


# every term up to 1e306 in magnitude, subnormals included, and at most 100
# of them, so no sum overflows
@given(st.lists(st.floats(min_value=-1e306, max_value=1e306,
                          allow_nan=False, allow_infinity=False),
                max_size=100))
def test_compensated_matches_fsum_on_bounded_data(terms):
    assert compensated_sum(terms).hex() == math.fsum(terms).hex()


@pytest.mark.parametrize("terms", [[1e308, 1e308], [math.inf, 1.0],
                                   [math.inf, -math.inf]])
def test_compensated_sum_is_nan_where_fsum_overflows_or_is_not_finite(terms):
    # math.fsum raises OverflowError or ValueError, or returns inf, here
    assert math.isnan(compensated_sum(terms))


@given(st.lists(st.integers(min_value=-2 ** 40, max_value=2 ** 40)))
def test_exact_sum_exact_on_integers(xs):
    assert exact_sum(float(x) for x in xs) == float(sum(xs))


# ---------------------------------------------------------------------------
# the array kernel: a 1-d float64 array of at least _KERNEL_MIN terms is
# summed by exponent buckets, and must read exactly what math.fsum reads

_EDGES = (0, 1, _KERNEL_MIN - 1, _KERNEL_MIN, _KERNEL_MIN + 1, _CHUNK - 1,
          _CHUNK, _CHUNK + 1, 3 * _CHUNK, 3 * _CHUNK + 1, 3 * 2 ** 16)


def _outcome(fn, terms):
    """fn's value as hex, or the type of what it raised."""
    try:
        return fn(terms).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_fsum_bits(arr):
    want = math.fsum(arr.tolist())
    assert exact_sum(arr).hex() == want.hex()
    assert compensated_sum(arr).hex() == want.hex()
    if arr.shape[0] >= _KERNEL_MIN and want != 0.0:
        # the kernel itself, not its fallback, gave that value
        assert _bucket_sum(arr).hex() == want.hex()


# every term below 1e290 in magnitude, under the kernel's exponent bound
# (2**977), subnormals included
@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 3 * 2 ** 16),
                  elements=st.floats(-1e290, 1e290, allow_nan=False)))
def test_array_sum_is_fsum_bit_for_bit(arr):
    _assert_fsum_bits(arr)


def _structured(kind, n, rng):
    if kind == "mixed":
        # exponents from 1e-300 to 1e290
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 290, n)
    if kind == "subnormal":
        return rng.standard_normal(n) * 1e-310
    if kind == "cancel":
        # +x and -x shuffled: the exact total is 0, signed as fsum signs it
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-30, 30,
                                                                n // 2)
        out = np.concatenate([half, -half, -np.zeros(n % 2)])
        rng.shuffle(out)
        return out
    if kind == "offset":
        return 1e16 + rng.standard_normal(n)
    # one exponent: every term in [1, 2) up to sign
    return rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)


_KINDS = ("mixed", "subnormal", "cancel", "offset", "one_exponent")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(0, 3 * 2 ** 16),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_structured_array_sum_is_fsum_bit_for_bit(kind, n, seed, strided):
    rng = np.random.default_rng(seed)
    arr = _structured(kind, 2 * n if strided else n, rng)
    _assert_fsum_bits(arr[::2] if strided else arr)


@pytest.mark.parametrize("n", _EDGES)
@pytest.mark.parametrize("kind", _KINDS)
def test_array_sum_at_the_threshold_and_chunk_edges_is_fsum(kind, n):
    _assert_fsum_bits(_structured(kind, n, np.random.default_rng(n)))


@pytest.mark.parametrize("arr", [
    np.full(600, 1e308),                               # fsum overflows
    np.r_[np.ones(600), math.inf],
    np.r_[np.ones(600), math.inf, -math.inf],          # fsum: ValueError
    np.r_[np.ones(600), math.nan],
    np.r_[np.full(300, 1e305), np.full(300, -1e305), np.ones(10)],
    np.full(512, -0.0),
    np.r_[np.full(300, 1.5), np.full(300, -1.5)],
], ids=["overflow", "inf", "inf-inf", "nan", "near-overflow", "negative-zeros",
        "exact-zero"])
def test_array_sum_outside_the_kernel_is_fsum(arr):
    assert _bucket_sum(arr) is None
    want = _outcome(math.fsum, arr.tolist())
    assert _outcome(exact_sum, arr) == want
    got = compensated_sum(arr)
    if isinstance(want, type) or want in ("inf", "-inf", "nan"):
        assert math.isnan(got)
    else:
        assert got.hex() == want


# ---------------------------------------------------------------------------
# end to end: the package's large sums are fsum's, bit for bit


def test_riemann_sum_on_a_fine_uniform_family_is_fsum():
    n = 2 ** 16
    lefts = np.arange(n) / n
    rights = np.arange(1, n + 1) / n
    tags = 0.5 * (lefts + rights)
    fam = TaggedFamily1D((0.0, 1.0), lefts, rights, tags)
    f = lambda x: np.sin(40.0 * x) * np.exp(3.0 * x)
    want = math.fsum((f(tags) * (rights - lefts)).tolist())
    assert riemann_sum(f, fam).hex() == want.hex()


def test_saks_henstock_audit_on_a_sqsin_family_is_fsum():
    pair = gallery.square_sine_pair()
    F, f = pair["F"], pair["Fprime"]
    sched = ftc_schedule(F, f, list(pair["exceptional"]), pair["host"])
    res = hk_integrate(f, sched, 1e-3, keep_families=True)
    part = res.certificate.families[0].partition
    assert part.n >= _KERNEL_MIN
    terms = np.abs(f(part.tags) * part.widths - (F(part.rights)
                                                 - F(part.lefts)))
    want = math.fsum(terms.tolist())
    assert saks_henstock_audit(f, F, part).hex() == want.hex()
