import math

import pytest
from hypothesis import given, strategies as st

from gaugeint import compensated_sum, exact_sum


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
