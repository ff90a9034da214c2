"""Double-double arithmetic, quadrature rules, and the pivoted LU determinant."""

import decimal
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gapdet.mpnum import (
    ExtendedReal,
    NewtonConvergenceError,
    SingularMatrixError,
    dd_add,
    dd_exp,
    dd_log,
    dd_mul,
    gauss_legendre,
    log_det_lu,
    two_prod,
    two_sum,
)

mpmath.mp.dps = 50


def _mp(x: ExtendedReal) -> mpmath.mpf:
    return mpmath.mpf(x.hi) + mpmath.mpf(x.lo)


def test_two_sum_is_error_free():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(-1e8, 1e8)
        b = rng.uniform(-1e-8, 1e8)
        hi, lo = two_sum(a, b)
        assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)
        assert hi == a + b


def test_two_prod_is_error_free():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.uniform(-1e5, 1e5)
        b = rng.uniform(-1e5, 1e5)
        hi, lo = two_prod(a, b)
        assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)


def test_pair_arithmetic_matches_rational_reference():
    # dd ops should agree with exact rational arithmetic to ~1e-31 relative.
    rng = random.Random(3)
    for _ in range(50):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(0.1, 10.0)
        for op, ref in ((dd_add, Fraction(a) + Fraction(b)),
                        (dd_mul, Fraction(a) * Fraction(b))):
            hi, lo = op(a, 0.0, b, 0.0)
            err = abs(Fraction(hi) + Fraction(lo) - ref)
            assert err <= abs(ref) * Fraction(1, 10**31) + Fraction(1, 10**40)


def test_extended_real_from_fraction_round_trip():
    x = ExtendedReal.from_fraction(Fraction(1, 3))
    assert x.hi == 1.0 / 3.0
    assert x.lo != 0.0
    back = x * 3 - ExtendedReal(1.0)
    assert abs(float(back)) < 1e-31


def test_extended_real_operator_consistency():
    a = ExtendedReal.from_fraction(Fraction(22, 7))
    b = ExtendedReal.from_fraction(Fraction(-3, 11))
    got = _mp((a + b) * a - b / a)
    fa, fb = Fraction(22, 7), Fraction(-3, 11)
    want = (fa + fb) * fa - fb / fa
    assert abs(got - mpmath.mpf(want.numerator) / want.denominator) < 1e-30
    assert float(-a) == -float(a)
    assert abs(a) == a
    assert abs(b) == -b
    assert b < a
    assert b <= b
    assert ExtendedReal(2.0) == ExtendedReal(2.0, 0.0)


def test_extended_real_exp_log_against_mpmath():
    for v in (0.0, 1.0, -0.5, 3.25, -11.0, 0.003):
        x = ExtendedReal.from_string(repr(v))
        assert abs(_mp(x.exp()) - mpmath.exp(_mp(x))) < 1e-28 * float(mpmath.exp(v))
    for v in (1.0, 0.25, 9.5, 1e-3, 7.0):
        x = ExtendedReal.from_string(repr(v))
        assert abs(_mp(x.log()) - mpmath.log(_mp(x))) < 1e-28
        # round trip
        assert abs(float(x.log().exp() - x)) < 1e-28 * v


def test_exp_log_pair_functions_match_methods():
    hi, lo = dd_exp(1.5, 0.0)
    m = ExtendedReal(1.5).exp()
    assert (hi, lo) == (m.hi, m.lo)
    hi, lo = dd_log(1.5, 0.0)
    m = ExtendedReal(1.5).log()
    assert (hi, lo) == (m.hi, m.lo)


def test_from_string_captures_sub_ulp_part():
    x = ExtendedReal.from_string("0.1")
    assert x.hi == 0.1
    assert abs(_mp(x) - mpmath.mpf("0.1")) < 1e-32


def test_str_renders_40_digits_without_touching_the_decimal_context():
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        text = str(ExtendedReal.from_string("0.1"))
        assert decimal.getcontext().prec == 28
    assert text == "0.09999999999999999999999999999999969185121"


# --- Gauss-Legendre rules ---------------------------------------------------


def _dd_terms(rule):
    """Iterate (node, weight) per abscissa as mpmath values from both limbs."""
    nh, nl = rule.nodes_dd()
    wh, wl = rule.weights_dd()
    for i in range(rule.order):
        yield (mpmath.mpf(nh[i]) + mpmath.mpf(nl[i]),
               mpmath.mpf(wh[i]) + mpmath.mpf(wl[i]))


def test_rule_n1_and_n2_closed_forms():
    r1 = gauss_legendre(1)
    assert r1.nodes_f8[0] == 0.0
    (_, w1), = _dd_terms(r1)
    assert w1 == 2

    r2 = gauss_legendre(2)
    terms = list(_dd_terms(r2))
    target = mpmath.sqrt(mpmath.mpf(1) / 3)
    assert abs(terms[1][0] - target) < 1e-31
    assert abs(terms[0][1] - 1) < 1e-31


@pytest.mark.parametrize("n", [2, 7, 24, 61, 150])
def test_rule_structure(n):
    r = gauss_legendre(n)
    nh, nl = r.nodes_dd()
    wh, wl = r.weights_dd()
    assert r.order == n and len(nh) == n == len(wh)
    # exact antisymmetry, in both limbs
    assert np.array_equal(nh, -nh[::-1]) and np.array_equal(nl, -nl[::-1])
    assert np.array_equal(wh, wh[::-1]) and np.array_equal(wl, wl[::-1])
    if n % 2 == 1:
        assert nh[n // 2] == 0.0 and nl[n // 2] == 0.0
    assert np.all(np.diff(r.nodes_f8) > 0)
    assert np.all(r.weights_f8 > 0)
    assert np.array_equal(r.nodes_f8, nh) and np.array_equal(r.weights_f8, wh)
    total = sum(w for _, w in _dd_terms(r))
    assert abs(total - 2) < 1e-30


def test_rule_integrates_high_degree_monomial():
    # n=40 is exact for degree 79, so x^78 must integrate to 2/79 at dd accuracy.
    total = sum(w * x ** 78 for x, w in _dd_terms(gauss_legendre(40)))
    assert abs(total - mpmath.mpf(2) / 79) < 1e-30


def test_rule_integrates_exponential():
    total = sum(w * mpmath.exp(x) for x, w in _dd_terms(gauss_legendre(20)))
    want = mpmath.e - 1 / mpmath.e
    assert abs(total - want) < 1e-28


def test_rule_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(2001)


def test_rule_is_deterministic():
    a = gauss_legendre(37)
    b = gauss_legendre(37)
    for x, y in zip(a.nodes_dd() + a.weights_dd(), b.nodes_dd() + b.weights_dd()):
        assert np.array_equal(x, y)


# --- LU determinants --------------------------------------------------------


def _exact_logdet_oracle(a: np.ndarray) -> mpmath.mpf:
    """log |det| of the binary64 matrix by exact rational elimination."""
    n = a.shape[0]
    m = [[Fraction(float(a[i, j])) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return mpmath.log(abs(mpmath.mpf(det.numerator) / det.denominator))


def test_log_det_matches_exact_hilbert_determinant():
    # Hilbert 6x6 has condition ~1.5e7; the dd elimination should still land
    # within ~1e-24 of the exact determinant of the rounded entries.
    h = np.array([[1.0 / (i + j + 1) for j in range(6)] for i in range(6)])
    res = log_det_lu(h)
    want = _exact_logdet_oracle(h)
    assert res.sign == 1
    assert abs(_mp(res.log_abs_det) - want) < 1e-24
    assert 0.0 < float(res.pivot_min) < 1.0


def test_log_det_identity_and_swap():
    res = log_det_lu(np.eye(5))
    assert float(res.log_abs_det) == 0.0
    assert res.sign == 1
    assert float(res.pivot_min) == 1.0

    res = log_det_lu(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert res.sign == -1
    assert float(res.log_abs_det) == 0.0


def test_log_det_similarity_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    p = np.eye(12)[rng.permutation(12)]
    r1 = log_det_lu(a)
    r2 = log_det_lu(p @ a @ p.T)
    assert abs(float(r1.log_abs_det - r2.log_abs_det)) < 1e-26
    assert r1.sign == r2.sign


def test_log_det_agrees_with_slogdet_in_double():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((20, 20))
    sign, logdet = np.linalg.slogdet(a)
    res = log_det_lu(a)
    assert res.sign == int(sign)
    assert abs(float(res.log_abs_det) - logdet) < 1e-11


def test_log_det_rejects_bad_input():
    with pytest.raises(SingularMatrixError):
        log_det_lu(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        log_det_lu(np.ones((2, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            log_det_lu(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_newton_error_type_exists():
    assert issubclass(NewtonConvergenceError, Exception)
