"""
Extended-precision quadrature and determinants
==============================================

Shows what the double-double layer buys: Gauss-Legendre rules whose nodes
and weights carry ~32 significant digits in their (hi, lo) words, and an
LDL^T elimination of symmetric positive definite matrices that gives log det
of the matrix it is handed far more accurately than LAPACK's slogdet (for
the 8x8 Hilbert matrix below, 1.4e-24 against 6.4e-9).  Every error is
measured against exact rational arithmetic, its logs taken to 50 digits in
decimal.  What the elimination does not buy is a better determinant of the
matrix one meant: rounding the Hilbert entries to binary64 moves log|det|
by 2.9e-9, about as far as slogdet's own error, and for a CubicSine(1, 1)
kernel at s = 2, n = 96 the elimination is off a 40-digit reference by
4.7e-10 and slogdet by 6.1e-10.
"""

import decimal
import math
from fractions import Fraction

import numpy as np

from gapdet import gauss_legendre, log_det_lu

D50 = decimal.Context(prec=50)


def exact(hi, lo) -> Fraction:
    """The exact value of a (hi, lo) pair."""
    return Fraction(float(hi)) + Fraction(float(lo))


def ln(q: Fraction) -> decimal.Decimal:
    """log q of a positive rational, to 50 digits."""
    return D50.subtract(D50.ln(q.numerator), D50.ln(q.denominator))


def off(value: decimal.Decimal, q: Fraction) -> decimal.Decimal:
    """|value - log q|, to 50 digits."""
    return D50.abs(D50.subtract(value, ln(q)))


# --- a rule is accurate to the second word ------------------------------------

rule = gauss_legendre(20)
nodes = [exact(h, l) for h, l in zip(*rule.nodes)]
weights = [exact(h, l) for h, l in zip(*rule.weights)]
print("sum of weights - 2:       %.3e" % float(sum(weights) - 2))

# n = 20 integrates x^38 exactly in theory; the two words leave ~1e-33
# behind, their binary64 sums ~1e-17
want = Fraction(2, 39)
dd = sum(w * x**38 for x, w in zip(nodes, weights))
f8 = float(np.sum(rule.weights_f8 * rule.nodes_f8**38))
print("x^38 error, (hi, lo) rule: %.3e" % abs(float(dd - want)))
print("x^38 error, f8 view:       %.3e" % abs(f8 - float(want)))

# --- determinants of an ill-conditioned matrix --------------------------------

n = 8
hilbert = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])

# det of the stored entries, by exact rational elimination
a = [[Fraction(v) for v in row] for row in hilbert.tolist()]
det = Fraction(1)
for k in range(n):
    det *= a[k][k]
    for i in range(k + 1, n):
        f = a[i][k] / a[k][k]
        for j in range(k, n):
            a[i][j] -= f * a[k][j]

res, = log_det_lu(hilbert[None])  # a stack of one matrix
sign, ref = np.linalg.slogdet(hilbert)
print("log|det| of the 8x8 Hilbert matrix:", sum(res.log_abs_det))
print("smallest pivot:", res.pivot_min)
# each log|det| against the 50-digit log of the exact rational determinant
print("LDL^T error against the stored entries:   %.1e"
      % off(D50.add(*map(decimal.Decimal, res.log_abs_det)), det))
print("slogdet error against the stored entries: %.1e"
      % off(decimal.Decimal(ref), det))

# det H_n = c_n^4 / c_2n with c_n = 1! 2! ... (n-1)!, for the exact entries
c = [math.prod(math.factorial(k) for k in range(m)) for m in (n, 2 * n)]
print("rounding the entries moves log|det| by:  %.1e"
      % off(ln(det), Fraction(c[0] ** 4, c[1])))
