"""Double-double arithmetic, quadrature rules, and the LDL^T determinant."""

import decimal
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gapdet import PsiField
from gapdet.kernels import PII, CubicSine, kernel_matrix
from gapdet.mpnum import (
    NotPositiveDefiniteError,
    dd_add,
    dd_mul,
    dd_sub,
    gauss_legendre,
    log_det_lu,
    two_prod,
    two_sum,
)

mpmath.mp.dps = 50


def _mp(x: tuple) -> mpmath.mpf:
    """The exact value of a (hi, lo) pair."""
    hi, lo = x
    return mpmath.mpf(hi) + mpmath.mpf(lo)


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


# --- Gauss-Legendre rules ---------------------------------------------------


def _dd_terms(rule):
    """Iterate (node, weight) per abscissa as mpmath values from both limbs."""
    nh, nl = rule.nodes
    wh, wl = rule.weights
    for i in range(len(nh)):
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
    nh, nl = r.nodes
    wh, wl = r.weights
    assert len(nh) == n == len(wh)
    # exact antisymmetry, in both limbs
    assert np.array_equal(nh, -nh[::-1]) and np.array_equal(nl, -nl[::-1])
    assert np.array_equal(wh, wh[::-1]) and np.array_equal(wl, wl[::-1])
    if n % 2 == 1:
        assert nh[n // 2] == 0.0 and nl[n // 2] == 0.0
        assert not np.signbit(nh[n // 2]) and not np.signbit(nl[n // 2])
    # rules are shared through a cache, so every array they hand out is read-only
    for a in (r.nodes_f8, r.weights_f8, nh, nl, wh, wl):
        with pytest.raises(ValueError):
            a[0] = 1.0
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


def _newton_rule_40_digits(n):
    """Non-negative half of the order-n rule, in increasing order, by Newton
    on the three-term recurrence in 40-digit decimal arithmetic.

    Starts from numpy's leggauss nodes (an odd n's middle one from exactly
    0) and takes two Newton steps, which carry a 1e-14 guess below 1e-38;
    the weight is 2 / ((1 - x^2) P_n'(x)^2) at the last iterate.
    """
    guess = np.polynomial.legendre.leggauss(n)[0][n // 2:]
    if n % 2:
        guess[0] = 0.0
    half = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        coef = [(decimal.Decimal(2 * j + 1) / (j + 1), decimal.Decimal(j) / (j + 1))
                for j in range(1, n)]
        for g in guess.tolist():
            x = decimal.Decimal(g)
            for step in range(3):
                p0, p1 = decimal.Decimal(1), x
                for a, b in coef:
                    p0, p1 = p1, a * x * p1 - b * p0
                dp = n * (p0 - x * p1) / (1 - x * x)
                if step < 2:
                    x -= p1 / dp
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
    return half


@pytest.mark.parametrize("n", [3, 24, 32, 64, 128, 256, 400])
def test_rule_against_an_independent_40_digit_newton(n):
    r = gauss_legendre(n)
    nh, nl = r.nodes
    wh, wl = r.weights
    half = _newton_rule_40_digits(n)
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for k, (x, w) in enumerate(half, start=n // 2):
            for j, sign in ((k, 1), (n - 1 - k, -1)):
                # the hi words are the correctly rounded values
                assert nh[j] == sign * float(x) and wh[j] == float(w)
                assert abs(D(nh[j]) + D(nl[j]) - sign * x) <= D("1e-32")
                assert abs(D(wh[j]) + D(wl[j]) - w) <= D("1e-28") * w


def test_rule_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(2001)


def test_rule_is_deterministic():
    # rules are memoized: the shared rule and a fresh build agree bit for bit
    a = gauss_legendre(37)
    b = gauss_legendre.__wrapped__(37)
    assert gauss_legendre(37) is a and b is not a
    for x, y in zip(a.nodes + a.weights, b.nodes + b.weights):
        assert np.array_equal(x, y)
    with pytest.raises(TypeError):
        gauss_legendre(True)


@pytest.mark.slow
def test_every_accepted_order_builds_a_sound_rule():
    # The binary64 Newton that starts each rule has no failure branch: on
    # every accepted order it settles in at most 5 of its 100 iterations.  A
    # rule it left short would lose its order, its symmetry or its sums
    # (measured worst: 3.2e-17 n and 3.7e-17 n).  The rules are built
    # unmemoized, so the memo does not keep all 2000 of them (about 64 MB).
    for n in range(1, 2001):
        r = gauss_legendre.__wrapped__(n)
        (xh, xl), (wh, wl) = r.nodes, r.weights
        assert -1.0 < xh[0] and np.all(np.diff(xh) > 0.0) and xh[-1] < 1.0, n
        assert np.array_equal(xh, -xh[::-1]) and np.array_equal(xl, -xl[::-1]), n
        assert np.all(wh > 0.0), n
        assert np.array_equal(wh, wh[::-1]) and np.array_equal(wl, wl[::-1]), n
        assert abs(np.sum(wh) - 2.0) <= 1e-16 * n, n
        if n > 1:                           # one node integrates x^2 to 0
            assert abs(np.sum(wh * xh * xh) - 2.0 / 3.0) <= 1e-16 * n, n


# --- LDL^T determinants -----------------------------------------------------


def _exact_logdet_oracle(a: np.ndarray) -> mpmath.mpf:
    """log |det| of the binary64 matrix, exactly: the entries scaled to
    integers by one power of two 2^e, then Bareiss's fraction-free
    elimination, whose every division is exact."""
    n = a.shape[0]
    e = min(math.frexp(v)[1] for v in a.ravel().tolist() if v != 0.0) - 53
    m = [[int(Fraction(v) / Fraction(2) ** e) for v in row] for row in a.tolist()]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return mpmath.log(abs(mpmath.mpf(m[n - 1][n - 1]))) + n * e * mpmath.log(2)


def _spd(seed: int, n: int, c: float) -> np.ndarray:
    """B B^T + c I for a standard normal B, exactly symmetric."""
    b = np.random.default_rng(seed).standard_normal((n, n))
    a = b @ b.T
    return 0.5 * (a + a.T) + c * np.eye(n)


def _lu(m):
    """The LogDetResult of one matrix, eliminated as a stack of one."""
    return log_det_lu(np.asarray(m, dtype=float)[None])[0]


def test_log_det_matches_exact_hilbert_determinant():
    # Hilbert 6x6 has condition ~1.5e7; the dd elimination should still land
    # within ~1e-24 of the exact determinant of the rounded entries.
    h = np.array([[1.0 / (i + j + 1) for j in range(6)] for i in range(6)])
    res = _lu(h)
    want = _exact_logdet_oracle(h)
    assert abs(_mp(res.log_abs_det) - want) < 1e-24
    assert 0.0 < float(res.pivot_min) < 1.0


def test_log_det_of_the_identity():
    res = _lu(np.eye(5))
    assert sum(res.log_abs_det) == 0.0
    assert float(res.pivot_min) == 1.0


def test_log_det_similarity_invariance():
    a = _spd(5, 12, 1.0)
    p = np.random.default_rng(5).permutation(12)
    r1 = _lu(a)
    r2 = _lu(a[p][:, p])
    assert abs(sum(dd_sub(*r1.log_abs_det, *r2.log_abs_det))) < 1e-26


def test_log_det_agrees_with_slogdet_in_double():
    a = _spd(19, 20, 1.0)
    sign, logdet = np.linalg.slogdet(a)
    res = _lu(a)
    assert sign == 1.0
    assert abs(sum(res.log_abs_det) - logdet) < 1e-11


def test_log_det_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError) as e:
        _lu(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert e.value.step == 1
    with pytest.raises(ValueError):
        _lu(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        _lu(np.array([[2.0, 1.0], [1.0 + 2.0 ** -52, 2.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            _lu(np.array([[1.0, 0.0], [bad, 1.0]]))
    with pytest.raises(ValueError):
        _lu(np.zeros((0, 0)))
    # an elimination that overflows binary64 must not come back as a NaN log
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        _lu(np.array([[1e308, 1e308], [1e308, -1e308]]))
    # pivots far from 1 are fine: only their product is logged
    for pivot in (1e-305, 1e305):
        res = _lu(np.diag([pivot, 1.0]))
        assert abs(_mp(res.log_abs_det) - mpmath.log(pivot)) < 1e-28


def test_log_det_of_a_product_far_outside_binary64():
    # 300 pivots of 1e-300 or 1e300 multiply to 1e-90000 or 1e90000, which
    # the product and its log carry without touching the caller's context,
    # not even one that traps float conversions
    with decimal.localcontext() as ctx:
        ctx.prec = 9
        ctx.traps[decimal.FloatOperation] = True
        for pivot in (1e-300, 1e300):
            res = _lu(np.diag(np.full(300, pivot)))
            want = 300 * mpmath.log(pivot)
            assert abs(_mp(res.log_abs_det) - want) <= 1e-30 * abs(want)
        assert decimal.getcontext().prec == 9
        assert not any(ctx.flags.values())


def test_log_det_of_an_spd_matrix_against_exact():
    a = _spd(23, 10, 0.1)
    res = _lu(a)
    assert abs(_mp(res.log_abs_det) - _exact_logdet_oracle(a)) < 1e-24


def test_log_det_matches_the_per_pivot_log_sum():
    # diagonal: the pivots are the diagonal, in order
    d = np.random.default_rng(29).uniform(0.1, 3.0, 16)
    want = mpmath.fsum(mpmath.log(mpmath.mpf(float(v))) for v in d)
    res = _lu(np.diag(d))
    assert abs(_mp(res.log_abs_det) - want) < 1e-28
    assert res.pivot_min == float(np.min(d))


def test_log_det_on_the_nystrom_matrices_that_matter(hm):
    # Ladder rungs at the edge of the kernels' trust band.  A double-double
    # elimination is good to about cond(M) dd units: over these and the
    # n = 64 rungs of PII(1) at s = 2 and 2.4 and of CubicSine(1, 1) at s = 2
    # the error is 0.01-0.7 of cond(M) 2^-106, so that is the bound: 6.3e-26
    # at PII(1), s = 2, n = 32 (cond 5.1e6) and 4.8e-21 at CubicSine(1, 1),
    # s = 2.4, n = 64 (cond 3.9e11).  The n = 32 rung at s = 2.4 is not
    # positive definite.
    for spec, s, n in ((CubicSine(t=1.0, x=1.0), 2.4, 64),
                       (PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0, 32)):
        rule = gauss_legendre(n)
        sq = np.sqrt(s * rule.weights_f8)
        m = np.eye(n) - (sq[:, None] * sq[None, :]) * kernel_matrix(spec, s * rule.nodes_f8)
        res = _lu(m)
        err = abs(_mp(res.log_abs_det) - _exact_logdet_oracle(m))
        assert err <= np.linalg.cond(m) * 2.0 ** -106


def _same(a, b) -> bool:
    """Bit-for-bit equality of two results: hi, lo and pivot_min."""
    return a.log_abs_det == b.log_abs_det and a.pivot_min == b.pivot_min


def test_a_stack_gives_each_matrix_its_own_result():
    for depth in (1, 2, 3):
        for n in (1, 7, 64, 65, 130):
            stack = np.stack([_spd(100 * depth + n + i, n, 0.1) for i in range(depth)])
            results = log_det_lu(stack)
            assert len(results) == depth
            assert all(_same(r, _lu(m)) for r, m in zip(results, stack))


def test_a_stack_of_folded_blocks_gives_each_block_its_own_result(hm):
    # A rung's two blocks, eliminated as one stack, give each block's own
    # result.  At odd n the odd block is one order short and is bordered
    # by a unit row and column: eliminated alone without its border, it
    # gives the bordered block's hi, lo and pivot_min bit for bit.
    from gapdet.fredholm import _nystrom
    from gapdet.kernels import Sine

    cases = ((Sine(x=1.0), 5.0), (CubicSine(t=1.0, x=1.0), 2.0),
             (PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0))
    for spec, s in cases:
        for n in (32, 33, 49, 64, 65, 128, 256):
            blocks = _nystrom(spec, s, n)[0]
            results = log_det_lu(blocks)
            assert all(_same(r, _lu(b)) for r, b in zip(results, blocks))
            if n % 2:
                h = n // 2
                assert blocks[1, h, h] == 1.0 and not blocks[1, h, :h].any()
                assert _same(results[1], _lu(blocks[1, :h, :h]))


def test_a_stack_refusal_reports_the_earliest_step():
    ok = np.eye(4)
    late = np.diag([1.0, 1.0, 1.0, -1.0])      # fails at step 3
    early = np.diag([1.0, -1.0, 1.0, 1.0])     # fails at step 1
    for stack, step in (([ok, early], 1), ([late, early], 1), ([early, late], 1),
                        ([late, ok, late], 3), ([ok, late, early], 1), ([early, early], 1),
                        ([late, early, early], 1), ([late], 3)):
        with pytest.raises(NotPositiveDefiniteError) as e:
            log_det_lu(stack)
        assert e.value.step == step


def test_a_stack_is_checked_like_a_matrix():
    a = _spd(31, 5, 1.0)
    with pytest.raises(ValueError, match="square"):
        log_det_lu(a)                       # one matrix comes as a stack of one
    with pytest.raises(ValueError):
        log_det_lu([a, a[:4, :4]])
    with pytest.raises(ValueError, match="square"):
        log_det_lu(np.zeros((2, 4, 5)))
    with pytest.raises(ValueError, match="square"):
        log_det_lu(np.zeros((0, 4, 4)))
    b = a.copy()
    b[3, 1] = np.nextafter(b[3, 1], np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        log_det_lu(np.stack([a, b]))
    c = a.copy()
    c[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        log_det_lu(np.stack([a, c]))
