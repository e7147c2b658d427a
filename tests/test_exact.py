"""The error-free transforms of ``_exact``, checked in exact rational
arithmetic on doubles of magnitude 2**-400 to 2**400, as scalars and as
arrays, and the low part of 2 pi against 50-digit mpmath."""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jcm_entropy._exact import _TWO_PI_LO, split, two_prod, two_sum

MAGNITUDE = st.floats(min_value=2.0 ** -400, max_value=2.0 ** 400)
DOUBLE = st.builds(lambda m, negative: -m if negative else m, MAGNITUDE, st.booleans())
PAIR = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(arrays(np.float64, n, elements=DOUBLE) for _ in range(2))))


@pytest.mark.parametrize("transform, exact", [(two_sum, operator.add),
                                              (two_prod, operator.mul)],
                         ids=["two_sum", "two_prod"])
@given(scalars=st.tuples(DOUBLE, DOUBLE), vectors=PAIR)
@settings(max_examples=300, deadline=None)
def test_transform_is_error_free(transform, exact, scalars, vectors):
    """a + b = s + e for two_sum and a * b = p + e for two_prod, in rational
    arithmetic, on scalars and element by element on arrays."""
    x, y = transform(*vectors)
    assert x.dtype == y.dtype == np.float64
    entries = [(*scalars, *transform(*scalars)), *zip(*(v.tolist() for v in (*vectors, x, y)))]
    for a, b, x, y in entries:
        assert exact(Fraction(a), Fraction(b)) == Fraction(x) + Fraction(y)


def _significant_bits(x: float) -> int:
    n = abs(x.as_integer_ratio()[0])
    return (n // (n & -n)).bit_length() if n else 0


@given(DOUBLE)
@settings(max_examples=300, deadline=None)
def test_split_is_exact_in_halves_of_26_bits(a):
    hi, lo = split(a)
    assert Fraction(hi) + Fraction(lo) == Fraction(a)
    assert _significant_bits(hi) <= 26 and _significant_bits(lo) <= 26


def test_two_pi_lo_is_the_nearest_double():
    with mpmath.workdps(50):
        lo = 2 * mpmath.pi - mpmath.mpf(2 * math.pi)  # float(2 pi) is exact in mpf
        gap = abs(lo - _TWO_PI_LO)
        for neighbour in (math.nextafter(_TWO_PI_LO, 0.0), math.nextafter(_TWO_PI_LO, 1.0)):
            assert gap < abs(lo - neighbour)
