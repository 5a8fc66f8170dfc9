import math
from fractions import Fraction

import pytest

from sio_lab.errors import Check


@pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (0.0, math.nan),
                                      (math.nan, math.nan),
                                      (math.nan, math.inf)])
def test_nan_on_either_side_fails(lhs, rhs):
    assert not Check.le("c", lhs, rhs).ok
    assert not Check.le("c", lhs, rhs, tol=1.0).ok


@pytest.mark.parametrize("rhs", [1.0, math.inf])
def test_an_infinite_lhs_fails_even_against_an_infinite_rhs(rhs):
    assert not Check.le("c", math.inf, rhs).ok
    assert not Check.le("c", -math.inf, rhs).ok
    assert Check.le("c", 1e308, math.inf).ok


def test_fractions_and_ints_compare_exactly():
    third = Fraction(1, 3)
    assert Check.le("c", third, third).ok
    assert not Check.le("c", third + Fraction(1, 10 ** 30), third).ok
    # as floats these would be equal, or not comparable at all
    assert not Check.le("c", 10 ** 400 + 1, 10 ** 400).ok
    assert Check.le("c", 10 ** 400, 10 ** 400 + 1).ok


def test_tol_applies_only_where_it_is_given():
    # a default tol of 0.0 added to a Fraction would round it to the float
    # below 1/3, which 1/3 exceeds
    third = Fraction(1, 3)
    assert Check.le("c", third, third).ok
    assert not Check.le("c", third, third + 0.0).ok
    above = math.nextafter(1.0, 2.0)
    assert not Check.le("c", above, 1.0).ok
    assert Check.le("c", above, 1.0, tol=1e-12).ok

