"""Airy evaluation and the exact constant block."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gapdet.specfun import CONSTANTS, Constants, airy_ai, airy_ai_prime

mpmath.mp.dps = 50


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


# --- constants ---------------------------------------------------------------


def test_zeta_prime_at_minus_one_two_ways():
    want_deriv = mpmath.zeta(-1, derivative=1)
    want_glaisher = mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher)
    got = _mp(CONSTANTS.zeta_prime_minus1)
    assert abs(want_deriv - want_glaisher) < 1e-45
    assert abs(got - want_deriv) < 1e-30


def test_constant_block_values():
    assert abs(_mp(CONSTANTS.ln2) - mpmath.log(2)) < 1e-32
    zp = mpmath.zeta(-1, derivative=1)
    assert abs(_mp(CONSTANTS.omega0) - (-mpmath.log(2) / 6 + 3 * zp)) < 1e-30
    assert abs(_mp(CONSTANTS.dyson_const) - (mpmath.log(2) / 12 + 3 * zp)) < 1e-30


def test_constant_identity_between_the_two_tails():
    # omega0 - dyson_const = -ln2/6 - ln2/12 = -ln2/4, independent of zeta'.
    diff = _mp(CONSTANTS.omega0) - _mp(CONSTANTS.dyson_const)
    assert abs(diff + mpmath.log(2) / 4) < 1e-28


def test_every_constant_is_an_exact_fraction():
    values = [getattr(CONSTANTS, f.name) for f in dataclasses.fields(Constants)]
    assert len(values) == 4 and all(isinstance(v, Fraction) for v in values)


# --- Airy --------------------------------------------------------------------
#
# The domain is [0.5, 40]: the trapezoid rule on the Bessel-K integrals needs
# zeta = (2/3) x^{3/2} > 0, and gapdet evaluates Ai only right of x = 6 and
# in the solve's initial guess, which holds it at Ai(0.5) further left.

X_MIN = 0.5


def _rel(got, want):
    return abs(got / float(want) - 1.0)


@pytest.mark.parametrize("x", [-10.0, -7.3, -2.0, -0.4, 0.0, 0.9, 3.0, 6.5,
                               6.999, 7.0, 7.001, 8.5, 12.0, 20.0, 31.7, 40.0])
def test_airy_matches_mpmath_over_domain(x):
    if x < X_MIN:
        with pytest.raises(ValueError):
            airy_ai(x)
        with pytest.raises(ValueError):
            airy_ai_prime(x)
        return
    assert _rel(airy_ai(x), mpmath.airyai(x)) <= 1e-13
    assert _rel(airy_ai_prime(x), mpmath.airyai(x, derivative=1)) <= 1e-13


def test_airy_dense_sweep_against_mpmath():
    # 1,001 equally spaced points; the worst measures 3.7e-14 near x = 40,
    # where the rounding of zeta is amplified by e^{-zeta}
    xs = np.linspace(X_MIN, 40.0, 1001)
    ai, aip = airy_ai(xs), airy_ai_prime(xs)
    with mpmath.workdps(30):
        for x, a, ap in zip(xs, ai, aip):
            assert _rel(a, mpmath.airyai(x)) <= 1e-13, x
            assert _rel(ap, mpmath.airyai(x, derivative=1)) <= 1e-13, x


def test_airy_second_derivative_identity():
    # Ai'' = x Ai, checked with a central difference on Ai'.
    for x in (0.6, 1.0, 4.0, 10.0):
        h = 1e-5
        second = (airy_ai_prime(x + h) - airy_ai_prime(x - h)) / (2 * h)
        assert abs(second - x * airy_ai(x)) < 1e-5 * max(1.0, abs(x * airy_ai(x)))


def test_airy_positive_and_decreasing_for_positive_argument():
    xs = np.linspace(X_MIN, 40.0, 400)
    vals = airy_ai(xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(airy_ai_prime(xs) < 0.0)


def test_airy_array_matches_scalar_bitwise():
    grid = np.linspace(0.5, 40.0, 1001)
    for xs in (np.array([0.5, 0.7, 3.0, 6.9, 7.1, 25.0, 40.0]),
               # longer than one block of the rule and not a multiple of it,
               # flat and 2-D
               grid, grid[:1000].reshape(40, 25)):
        vec = airy_ai(xs)
        vecp = airy_ai_prime(xs)
        assert vec.shape == vecp.shape == xs.shape
        for i, x in np.ndenumerate(xs):
            assert vec[i] == airy_ai(float(x))
            assert vecp[i] == airy_ai_prime(float(x))


def test_airy_domain_is_enforced():
    for bad in (0.4999, 0.0, -10.0, 40.0001, -50.0, 1e3, float("nan")):
        with pytest.raises(ValueError):
            airy_ai(bad)
        with pytest.raises(ValueError):
            airy_ai_prime(bad)
    with pytest.raises(ValueError):
        airy_ai(np.array([1.0, 41.0]))
    with pytest.raises(ValueError):
        airy_ai(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        airy_ai(np.array([1.0, np.nan]))


def test_airy_scalar_returns_python_float():
    assert type(airy_ai(1.0)) is float
    assert type(airy_ai_prime(1.0)) is float
