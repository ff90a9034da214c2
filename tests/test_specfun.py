"""Airy evaluation and the extended-precision constant block."""

import math

import mpmath
import numpy as np
import pytest

from gapdet.specfun import CONSTANTS, airy_ai, airy_ai_prime, zeta_prime_minus1

mpmath.mp.dps = 50


def _mp(x):
    return mpmath.mpf(x.hi) + mpmath.mpf(x.lo)


# --- constants ---------------------------------------------------------------


def test_zeta_prime_at_minus_one_two_ways():
    want_deriv = mpmath.zeta(-1, derivative=1)
    want_glaisher = mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher)
    got = _mp(zeta_prime_minus1())
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


def test_zeta_prime_is_cached_or_stable():
    a = zeta_prime_minus1()
    b = zeta_prime_minus1()
    assert a.hi == b.hi and a.lo == b.lo


# --- Airy --------------------------------------------------------------------


def test_airy_at_zero_closed_form():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
    ai0 = mpmath.mpf(3) ** mpmath.mpf("-2/3") / mpmath.gamma(mpmath.mpf(2) / 3)
    aip0 = -(mpmath.mpf(3) ** mpmath.mpf("-1/3")) / mpmath.gamma(mpmath.mpf(1) / 3)
    assert abs(airy_ai(0.0) - float(ai0)) < 1e-15
    assert abs(airy_ai_prime(0.0) - float(aip0)) < 1e-15


@pytest.mark.parametrize("x", [-10.0, -7.3, -2.0, -0.4, 0.0, 0.9, 3.0, 6.5,
                               6.999, 7.0, 7.001, 8.5, 12.0, 20.0, 31.7, 40.0])
def test_airy_matches_mpmath_over_domain(x):
    want = mpmath.airyai(x)
    wantp = mpmath.airyai(x, derivative=1)
    assert abs(airy_ai(x) - float(want)) <= 5e-12 * max(1.0, abs(float(want)))
    assert abs(airy_ai_prime(x) - float(wantp)) <= 5e-12 * max(1.0, abs(float(wantp)))
    if want != 0:
        assert abs(airy_ai(x) / float(want) - 1.0) < 5e-12


def test_airy_second_derivative_identity():
    # Ai'' = x Ai, checked with a central difference on Ai'.
    for x in (-5.0, 1.0, 4.0, 10.0):
        h = 1e-5
        second = (airy_ai_prime(x + h) - airy_ai_prime(x - h)) / (2 * h)
        assert abs(second - x * airy_ai(x)) < 1e-5 * max(1.0, abs(x * airy_ai(x)))


def test_airy_positive_and_decreasing_for_positive_argument():
    xs = np.linspace(0.0, 40.0, 400)
    vals = airy_ai(xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(airy_ai_prime(xs) < 0.0)


def test_airy_array_matches_scalar_bitwise():
    xs = np.array([-9.5, -1.0, 0.5, 6.9, 7.1, 25.0])
    vec = airy_ai(xs)
    vecp = airy_ai_prime(xs)
    for i, x in enumerate(xs):
        assert vec[i] == airy_ai(float(x))
        assert vecp[i] == airy_ai_prime(float(x))


def test_airy_domain_is_enforced():
    for bad in (-10.0001, 40.0001, -50.0, 1e3, float("nan")):
        with pytest.raises(ValueError):
            airy_ai(bad)
        with pytest.raises(ValueError):
            airy_ai_prime(bad)
    with pytest.raises(ValueError):
        airy_ai(np.array([0.0, 41.0]))
    with pytest.raises(ValueError):
        airy_ai(np.array([0.0, np.nan]))


def test_airy_scalar_returns_python_float():
    assert type(airy_ai(1.0)) is float
    assert type(airy_ai_prime(1.0)) is float
