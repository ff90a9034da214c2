"""Double-double arithmetic, Gauss-Legendre rules, and an extended-precision
log-determinant of a symmetric positive definite matrix.

Double-double is what makes the Gauss-Legendre weights right: at n = 128,
s = 2, binary64 Newton weights move log det by 5.8e-10, library rules by 4e-8
to 1e-7.  The LDL^T elimination carries it only until a binary64
factorization replaces it: on binary64-assembled matrices it buys nothing
(off a 40-digit reference by 4.7e-10 at CubicSine(1, 1), s = 2, n = 96,
where slogdet is off by 6.1e-10).  Its one input, I - W^1/2 K W^1/2 with
0 <= K < I, is positive definite when resolved, so it does not pivot.
The arithmetic is built on the classical error-free transformations
(two_sum, two_prod with Dekker splitting), giving a pair (hi, lo) worth
roughly 31 digits (the QD library's form: Hida, Li and Bailey, ARITH-15,
2001), and the only one here: two floats or two arrays in and out.  The
same code runs on scalars and numpy arrays; the hot paths use arrays: the
rule's one double-double pass of the Legendre recurrence over all its
binary64 roots at once, and the elimination's multipliers and rank-1
update, formed once per pivot step for a whole stack of matrices of one
order (the two folded blocks of a Nystrom rung), which halves the numpy
calls of a rung, each matrix's result bit for bit its own.  A rule takes
its nodes and weights from that one pass (a Halley step for the node, a
Taylor-corrected P_n' for the weight), so the four ladder orders 32-256
build in about 45 ms together on a 2-core host, against about 0.22 s with
three passes.  The binary64 Newton that starts the pass settles on every
accepted order (``gauss_legendre``), so the module's one error of its own
is the elimination's ``NotPositiveDefiniteError``.  The pivot's
reciprocal, once per pivot and matrix, runs on Python floats.  The
product of the pivots and its log are the standard library's:
``decimal`` at 40 digits, correctly rounded, with an exponent range that
no product of binary64 pivots leaves.

No FMA is assumed: ``math.fma`` does not exist on the oldest supported
interpreter, and numpy does not expose one either, so ``two_prod`` always goes
through the splitting route.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "LogDetResult",
    "NotPositiveDefiniteError",
    "gauss_legendre",
    "log_det_lu",
    "two_sum",
    "quick_two_sum",
    "two_prod",
    "dd_add",
    "dd_sub",
    "dd_mul",
    "dd_div",
]

# Dekker splitting constant for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


class NotPositiveDefiniteError(ArithmeticError):
    """Raised by log_det_lu at the first pivot that is not positive;
    ``step`` is the elimination step of that pivot, the earliest across a
    stack."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"pivot not positive at elimination step {step}")


# ---------------------------------------------------------------------------
# error-free transformations (scalar or ndarray arguments)
# ---------------------------------------------------------------------------

def two_sum(a, b):
    """a + b as (sum, exact error)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """a + b as (sum, exact error), assuming |a| >= |b| componentwise."""
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """a * b as (product, exact error) via Dekker splitting."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


# ---------------------------------------------------------------------------
# double-double arithmetic on (hi, lo) component pairs
# ---------------------------------------------------------------------------

def dd_add(ah, al, bh, bl):
    sh, se = two_sum(ah, bh)
    th, te = two_sum(al, bl)
    se = se + th
    sh, se = quick_two_sum(sh, se)
    se = se + te
    return quick_two_sum(sh, se)


def dd_sub(ah, al, bh, bl):
    return dd_add(ah, al, -bh, -bl)


def dd_mul(ah, al, bh, bl):
    ph, pe = two_prod(ah, bh)
    pe = pe + (ah * bl + al * bh)
    return quick_two_sum(ph, pe)


def dd_div(ah, al, bh, bl):
    # Three-quotient long division; each correction is computed in dd.
    q1 = ah / bh
    th, tl = dd_mul(bh, bl, q1, 0.0)
    rh, rl = dd_sub(ah, al, th, tl)
    q2 = rh / bh
    th, tl = dd_mul(bh, bl, q2, 0.0)
    rh, rl = dd_sub(rh, rl, th, tl)
    q3 = rh / bh
    qh, ql = quick_two_sum(q1, q2)
    return dd_add(qh, ql, q3, 0.0)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1] in double-double.

    ``nodes`` and ``weights`` are read-only (hi, lo) ndarray pairs.  The
    nodes are strictly increasing; the node/weight sets are exactly
    symmetric under x -> -x because only the non-negative half is computed
    and the rest is mirrored.  ``nodes_f8`` and ``weights_f8`` are the hi
    words, which are the pairs' binary64 roundings.
    """

    order: int
    nodes: tuple
    weights: tuple

    @property
    def nodes_f8(self) -> np.ndarray:
        return self.nodes[0]

    @property
    def weights_f8(self) -> np.ndarray:
        return self.weights[0]


# Recurrence steps whose a_j x coefficients are formed in one array call, so
# a block holds _GL_ROWS rows of the n - n // 2 abscissae, whatever n is.
_GL_ROWS = 64


@functools.lru_cache(typed=True)
def gauss_legendre(n: int) -> QuadratureRule:
    """Build the order-n Gauss-Legendre rule on [-1, 1].

    The non-negative roots start from the cosine guesses
    cos(pi (k + 3/4) / (n + 1/2)), an odd n's middle one from exactly 0, and
    converge in binary64 Newton: every order 1-2000 settles in at most 5 of
    the loop's 100 iterations (4 for all but n = 1 and n = 4-9), so the loop
    has no failure branch, and a slow test checks every rule.  One
    double-double pass of the three-term recurrence at those binary64 roots
    x0 gives P_{n-1} and P_n, and from them P_n' and, through Legendre's
    equation, P_n'' and P_n'''.  The node is one Halley step from x0.  Its
    weight 2 / ((1 - x^2) P_n'(x)^2) takes P_n' at the node from the Taylor
    expansion about x0, whose first-order term is carried in double-double.
    Rules are memoized per order, so
    every caller shares one read-only rule of each order.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("order must be an integer")
    if not 1 <= n <= 2000:
        raise ValueError(f"order {n} outside [1, 2000]")

    m = n // 2
    x = np.cos(np.pi * (np.arange(n - m, dtype=float) + 0.75) / (n + 0.5))
    x[m:] = 0.0  # an odd n's middle root, exactly; empty for an even n

    # binary64 pre-convergence
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2.0 * j + 1.0) * x * p1 - j * p0) / (j + 1.0)
        dx = p1 / (n * (p0 - x * p1) / (1.0 - x * x))
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break

    # P_{j+1} = a_j x P_j - b_j P_{j-1} with a_j = (2j+1)/(j+1), b_j = j/(j+1)
    # in dd; x is binary64, so a block of a_j x is one array call
    j = np.arange(1.0, n)
    ah, al = dd_div(2.0 * j + 1.0, 0.0, j + 1.0, 0.0)
    bh, bl = dd_div(j, 0.0, j + 1.0, 0.0)
    qh, ql = np.ones_like(x), np.zeros_like(x)       # P_0
    ph, pl = x, np.zeros_like(x)                     # P_1
    for k0 in range(0, n - 1, _GL_ROWS):
        axh, axl = dd_mul(ah[k0:k0 + _GL_ROWS, None], al[k0:k0 + _GL_ROWS, None], x, 0.0)
        for k in range(len(axh)):
            th, tl = dd_sub(*dd_mul(axh[k], axl[k], ph, pl),
                            *dd_mul(qh, ql, bh[k0 + k], bl[k0 + k]))
            qh, ql, ph, pl = ph, pl, th, tl

    # P' = n (P_{n-1} - x P_n) / (1 - x^2), and from Legendre's equation
    # (1 - x^2) P'' = 2x P' - n(n+1) P, (1 - x^2) P''' = 4x P'' + (2 - n(n+1)) P'
    nn = float(n * (n + 1))
    omh, oml = dd_add(*two_prod(-x, x), 1.0, 0.0)
    dph, dpl = dd_div(*dd_mul(*dd_sub(qh, ql, *dd_mul(ph, pl, x, 0.0)), float(n), 0.0), omh, oml)
    d2h, d2l = dd_div(*dd_sub(*dd_mul(dph, dpl, 2.0 * x, 0.0), *dd_mul(ph, pl, nn, 0.0)), omh, oml)
    d3 = (4.0 * x * d2h + (2.0 - nn) * dph) / omh

    # Halley: x1 - x0 = -d - d^2 P'' / (2 P') to third order in d = P / P';
    # the second-order term is at most 1e-10 of d, so binary64 carries it
    dh, dl = dd_div(ph, pl, dph, dpl)
    eh, el = dd_add(-dh, -dl, -dh * dh * d2h / (2.0 * dph), 0.0)
    xh, xl = dd_add(eh, el, x, 0.0)

    # P'(x1) = P' + e P'' + (e^2 / 2) P''' with e = x1 - x0; e P'' reaches
    # 1e-10 of P' at the ends for n = 2000, so only the last term is binary64
    dph, dpl = dd_add(dph, dpl, *dd_mul(eh, el, d2h, d2l))
    dph, dpl = dd_add(dph, dpl, 0.5 * eh * eh * d3, 0.0)
    # 1 - x1^2 = (1 - x0^2) - e (2 x0 + e): the weight then belongs to x0 + e,
    # not to its rounding to a dd pair, which near +-1 moves it by
    # 2x / (1 - x^2) times a dd unit (3e-28 relative at n = 400)
    omh, oml = dd_sub(omh, oml, *dd_mul(eh, el, *dd_add(eh, el, 2.0 * x, 0.0)))
    den_h, den_l = dd_mul(omh, oml, *dd_mul(dph, dpl, dph, dpl))
    wh, wl = dd_div(2.0 * np.ones_like(xh), np.zeros_like(xh), den_h, den_l)

    # the half runs from the largest root down; mirror it without a second 0
    nodes = tuple(_frozen(np.concatenate([-a[:m], a[::-1]])) for a in (xh, xl))
    weights = tuple(_frozen(np.concatenate([a[:m], a[::-1]])) for a in (wh, wl))
    return QuadratureRule(n, nodes, weights)


# ---------------------------------------------------------------------------
# extended-precision LDL^T log-determinant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDetResult:
    """Outcome of an extended-precision LDL^T factorization.

    ``log_abs_det`` is the natural log of det as a (hi, lo) pair,
    ``pivot_min`` the smallest pivot in binary64 (a cheap conditioning
    diagnostic, never below the smallest eigenvalue).
    """

    log_abs_det: tuple
    pivot_min: float


# Rows per slice of the rank-1 trailing update: its dozen temporaries then
# hold at most _LU_ROWS rows, whatever n is.
_LU_ROWS = 64

# The product of the pivots and its log: 40 digits, and an exponent range
# no product of binary64 pivots can leave.  Only this context's methods are
# called, floats included, so a caller's decimal context is neither flagged
# nor trapped (``Decimal(float)`` would raise under a trapped FloatOperation).
# Its sticky flags are the only state the calls change, and nothing reads them.
_DEC = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def log_det_lu(matrix):
    """log det of a symmetric positive definite float matrix, or of each
    matrix of a stack, by unpivoted LDL^T elimination in double-double.

    A 2-D ``matrix`` gives one LogDetResult.  A stack of matrices of one
    order, shaped (B, n, n) as in ``numpy.linalg``, gives a list of B, and
    each array operation of a pivot step runs once on the whole stack;
    every operation is elementwise in the matrix, so each result is bit for
    bit the one that matrix gives alone.  The entries are binary64 and each
    matrix must be exactly symmetric; every update is a (hi, lo) pair in the
    lower trapezoid of a row slice, with the pivot row read from the pivot
    column.  A pivot whose hi word is not positive raises
    NotPositiveDefiniteError at the earliest step at which any matrix has
    one.  Each step forms one scalar dd reciprocal per matrix of its
    pivot's binary64 mantissa on Python floats and the multipliers from
    one vector dd_mul, so no multiplier overflows a Dekker split.  Each
    matrix's product of pivots is carried in 40-digit decimal, and its log
    det is one correctly rounded decimal ln of it, split into a (hi, lo)
    pair.
    """
    ah = np.array(matrix, dtype=float)
    stacked = ah.ndim == 3
    if not stacked:
        ah = ah[None]
    if ah.ndim != 3 or ah.shape[1] != ah.shape[2] or 0 in ah.shape:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(ah)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(ah, ah.transpose(0, 2, 1)):
        raise ValueError("matrix must be symmetric")
    al = np.zeros(ah.shape)
    depth, n = ah.shape[:2]

    prods = [decimal.Decimal(1)] * depth   # product of each matrix's pivots
    pivs = [(math.inf, 0.0)] * depth       # each first smallest pivot as (hi, lo)

    for k in range(n):
        recips, shifts = [], []
        for b, (ph, pl) in enumerate(zip(ah[:, k, k].tolist(), al[:, k, k].tolist())):
            if not (math.isfinite(ph) and math.isfinite(pl)):
                raise ValueError("the elimination overflowed binary64")
            if not ph > 0.0:
                raise NotPositiveDefiniteError(k)
            pivs[b] = min(pivs[b], (ph, pl))
            prods[b] = _DEC.multiply(prods[b], _DEC.add(_DEC.create_decimal_from_float(ph),
                                                        _DEC.create_decimal_from_float(pl)))
            if k + 1 < n:
                # -1 / pivot = r 2^-x; the column, scaled by 2^-x, is at most 1
                fh, x = math.frexp(ph)
                recips.append(dd_div(-1.0, 0.0, fh, math.ldexp(pl, -x)))
                shifts.append(-x)

        if k + 1 < n:
            rh, rl = np.array(recips).T[:, :, None]
            x = np.array(shifts)[:, None]
            uh, ul = ah[:, k + 1:, k], al[:, k + 1:, k]
            mh, ml = dd_mul(np.ldexp(uh, x), np.ldexp(ul, x), rh, rl)
            bh, bl = ah[:, k + 1:, k + 1:], al[:, k + 1:, k + 1:]  # views of the trailing blocks
            for i in range(0, n - k - 1, _LU_ROWS):
                e = i + _LU_ROWS  # rows i..e of each block, columns up to e
                th, tl = dd_mul(mh[:, i:e, None], ml[:, i:e, None], uh[:, None, :e], ul[:, None, :e])
                bh[:, i:e, :e], bl[:, i:e, :e] = dd_add(bh[:, i:e, :e], bl[:, i:e, :e], th, tl)

    results = []
    for prod, piv in zip(prods, pivs):
        log_abs = _DEC.ln(prod)
        hi = float(log_abs)
        lo = float(_DEC.subtract(log_abs, _DEC.create_decimal_from_float(hi)))
        results.append(LogDetResult((hi, lo), piv[0] + piv[1]))
    return results if stacked else results[0]
