"""Double-double arithmetic, Gauss-Legendre rules, and an extended-precision
log-determinant.

The determinants computed by this package sit within ~1e-30 of zero in the
worst configurations, so plain binary64 LU is not enough.  Everything here is
built on the classical error-free transformations (two_sum, two_prod with
Dekker splitting), giving an unevaluated pair (hi, lo) worth roughly 31
significant decimal digits.  The primitives are written so that the same code
runs on scalars and on numpy arrays; the hot paths (node refinement, the
rank-1 LU update) rely on the array form.

No FMA is assumed: ``math.fma`` does not exist on the oldest supported
interpreter, and numpy does not expose one either, so ``two_prod`` always goes
through the splitting route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "ExtendedReal",
    "QuadratureRule",
    "LogDetResult",
    "NewtonConvergenceError",
    "SingularMatrixError",
    "gauss_legendre",
    "log_det_lu",
    "two_sum",
    "quick_two_sum",
    "two_prod",
    "dd_add",
    "dd_sub",
    "dd_mul",
    "dd_div",
    "dd_add_f",
    "dd_mul_f",
    "dd_div_f",
    "dd_exp",
    "dd_log",
]

# Dekker splitting constant for binary64: 2**27 + 1.
_SPLITTER = 134217729.0

# ln 2 as a double-double, used by dd_exp / dd_log argument reduction.
_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17


class NewtonConvergenceError(RuntimeError):
    """Raised when a Legendre root refinement fails to settle.

    Carries the index of the failing root in ``root_index``.
    """

    def __init__(self, root_index: int, order: int):
        self.root_index = root_index
        self.order = order
        super().__init__(
            f"Newton iteration for Legendre root {root_index} of order {order} "
            f"did not converge within 100 iterations"
        )


class SingularMatrixError(ArithmeticError):
    """Raised by log_det_lu on an exactly zero pivot.

    ``step`` is the elimination step at which the pivot vanished.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"exactly zero pivot at elimination step {step}")


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


def dd_add_f(ah, al, b):
    sh, se = two_sum(ah, b)
    se = se + al
    return quick_two_sum(sh, se)


def dd_mul(ah, al, bh, bl):
    ph, pe = two_prod(ah, bh)
    pe = pe + (ah * bl + al * bh)
    return quick_two_sum(ph, pe)


def dd_mul_f(ah, al, b):
    ph, pe = two_prod(ah, b)
    pe = pe + al * b
    return quick_two_sum(ph, pe)


def dd_div(ah, al, bh, bl):
    # Three-quotient long division; each correction is computed in dd.
    q1 = ah / bh
    th, tl = dd_mul_f(bh, bl, q1)
    rh, rl = dd_sub(ah, al, th, tl)
    q2 = rh / bh
    th, tl = dd_mul_f(bh, bl, q2)
    rh, rl = dd_sub(rh, rl, th, tl)
    q3 = rh / bh
    qh, ql = quick_two_sum(q1, q2)
    return dd_add_f(qh, ql, q3)


def dd_div_f(ah, al, b):
    q1 = ah / b
    th, tl = two_prod(b, q1)
    rh, rl = dd_sub(ah, al, th, tl)
    q2 = rh / b
    th, tl = two_prod(b, q2)
    rh, rl = dd_sub(rh, rl, th, tl)
    q3 = rh / b
    qh, ql = quick_two_sum(q1, q2)
    return dd_add_f(qh, ql, q3)


def dd_exp(ah, al):
    """exp of a double-double, componentwise on arrays.

    Argument reduction exp(a) = 2^k exp(r) with r = a - k ln2, then a further
    exact scaling by 1/512 before the Taylor sum so that nine squarings
    restore the result.  Accurate to a few units in the 31st digit for
    |a| <= 700, which covers every determinant this package can represent.
    """
    k = np.rint(ah / _LN2_HI)
    rh, rl = dd_add(ah, al, *dd_mul_f(_LN2_HI, _LN2_LO, -k))
    # scale by 2**-9 exactly
    rh, rl = rh / 512.0, rl / 512.0
    # Taylor sum of exp(r) - degree 20 is overkill after the reduction
    sh = np.ones_like(rh) if isinstance(rh, np.ndarray) else 1.0
    sl = np.zeros_like(rh) if isinstance(rh, np.ndarray) else 0.0
    th, tl = sh, sl
    for j in range(1, 21):
        th, tl = dd_mul(th, tl, rh, rl)
        th, tl = dd_div_f(th, tl, float(j))
        sh, sl = dd_add(sh, sl, th, tl)
    for _ in range(9):
        sh, sl = dd_mul(sh, sl, sh, sl)
    two_k = np.ldexp(1.0, np.asarray(k, dtype=np.int64)) if isinstance(k, np.ndarray) else float(np.ldexp(1.0, int(k)))
    return dd_mul_f(sh, sl, two_k)


def dd_log(ah, al):
    """Natural log of a positive double-double via Newton on exp.

    Two corrections of y_{n+1} = y_n + a*exp(-y_n) - 1 starting from the
    binary64 log; the iterate is carried as a dd pair throughout (dropping
    the low word between steps costs ten digits).
    """
    yh = np.log(ah)
    yl = np.zeros_like(yh) if isinstance(yh, np.ndarray) else 0.0
    for _ in range(2):
        eh, el = dd_exp(-yh, -yl)
        qh, ql = dd_mul(ah, al, eh, el)
        qh, ql = dd_add_f(qh, ql, -1.0)
        yh, yl = dd_add(yh, yl, qh, ql)
    return yh, yl


# ---------------------------------------------------------------------------
# scalar wrapper
# ---------------------------------------------------------------------------

_Num = Union["ExtendedReal", float, int]


@dataclass(frozen=True)
class ExtendedReal:
    """An unevaluated binary64 pair hi + lo with |lo| <= ulp(hi)/2.

    Supports mixed arithmetic with floats and ints.  Comparison is
    lexicographic on (hi, lo), which matches value order for normalized
    pairs.
    """

    hi: float
    lo: float = 0.0

    @staticmethod
    def from_fraction(f: Fraction) -> "ExtendedReal":
        hi = float(f)
        lo = float(f - Fraction(hi))
        return ExtendedReal(hi, lo)

    @staticmethod
    def from_string(s: str) -> "ExtendedReal":
        """Parse a decimal literal exactly (used for stored constants)."""
        return ExtendedReal.from_fraction(Fraction(s))

    def __float__(self) -> float:
        return float(self.hi + self.lo)

    def __neg__(self) -> "ExtendedReal":
        return ExtendedReal(-self.hi, -self.lo)

    def __abs__(self) -> "ExtendedReal":
        return -self if self.hi < 0.0 else self

    @staticmethod
    def _coerce(x: _Num) -> "ExtendedReal":
        if isinstance(x, ExtendedReal):
            return x
        return ExtendedReal(float(x), 0.0)

    def __add__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_add(self.hi, self.lo, o.hi, o.lo))

    __radd__ = __add__

    def __sub__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_sub(self.hi, self.lo, o.hi, o.lo))

    def __rsub__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_sub(o.hi, o.lo, self.hi, self.lo))

    def __mul__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_mul(self.hi, self.lo, o.hi, o.lo))

    __rmul__ = __mul__

    def __truediv__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_div(self.hi, self.lo, o.hi, o.lo))

    def __rtruediv__(self, other: _Num) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(*dd_div(o.hi, o.lo, self.hi, self.lo))

    def _key(self):
        return (self.hi, self.lo)

    def __eq__(self, other) -> bool:
        if isinstance(other, (ExtendedReal, float, int)):
            return self._key() == self._coerce(other)._key()
        return NotImplemented

    def __lt__(self, other: _Num) -> bool:
        return self._key() < self._coerce(other)._key()

    def __le__(self, other: _Num) -> bool:
        return self._key() <= self._coerce(other)._key()

    def __gt__(self, other: _Num) -> bool:
        return self._key() > self._coerce(other)._key()

    def __ge__(self, other: _Num) -> bool:
        return self._key() >= self._coerce(other)._key()

    def __hash__(self):
        return hash(self._key())

    def exp(self) -> "ExtendedReal":
        return ExtendedReal(*(float(v) for v in dd_exp(self.hi, self.lo)))

    def log(self) -> "ExtendedReal":
        if self.hi <= 0.0:
            raise ValueError("log of a non-positive ExtendedReal")
        return ExtendedReal(*(float(v) for v in dd_log(self.hi, self.lo)))

    def __repr__(self) -> str:
        return f"ExtendedReal({self.hi!r}, {self.lo!r})"

    def __str__(self) -> str:
        # decimal rendering of the full 31-digit value, handy in test output
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 40
            return str((Decimal(self.hi) + Decimal(self.lo)).normalize())


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1] in double-double.

    ``nodes`` are strictly increasing; the node/weight sets are exactly
    symmetric under x -> -x because only the positive half is computed and
    the rest is mirrored.
    """

    order: int
    nodes: tuple
    weights: tuple

    def nodes_dd(self):
        """Nodes as a (hi, lo) ndarray pair."""
        return (
            np.array([v.hi for v in self.nodes]),
            np.array([v.lo for v in self.nodes]),
        )

    def weights_dd(self):
        return (
            np.array([v.hi for v in self.weights]),
            np.array([v.lo for v in self.weights]),
        )

    @property
    def nodes_f8(self) -> np.ndarray:
        return np.array([v.hi + v.lo for v in self.nodes])

    @property
    def weights_f8(self) -> np.ndarray:
        return np.array([v.hi + v.lo for v in self.weights])


def _legendre_pair(n: int, xh, xl):
    """P_n and P_{n-1} at dd abscissae, all arithmetic in dd."""
    p0h = np.ones_like(xh)
    p0l = np.zeros_like(xh)
    p1h, p1l = xh.copy(), xl.copy()
    if n == 1:
        return (p1h, p1l), (p0h, p0l)
    for j in range(1, n):
        # (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}
        th, tl = dd_mul(xh, xl, p1h, p1l)
        th, tl = dd_mul_f(th, tl, 2.0 * j + 1.0)
        sh, sl = dd_mul_f(p0h, p0l, float(j))
        th, tl = dd_sub(th, tl, sh, sl)
        th, tl = dd_div_f(th, tl, j + 1.0)
        p0h, p0l = p1h, p1l
        p1h, p1l = th, tl
    return (p1h, p1l), (p0h, p0l)


def _legendre_pair_f8(n: int, x: np.ndarray):
    p0 = np.ones_like(x)
    p1 = x.copy()
    if n == 1:
        return p1, p0
    for j in range(1, n):
        p0, p1 = p1, ((2.0 * j + 1.0) * x * p1 - j * p0) / (j + 1.0)
    return p1, p0


def gauss_legendre(n: int) -> QuadratureRule:
    """Build the order-n Gauss-Legendre rule on [-1, 1].

    Roots start from the cosine guesses cos(pi (k + 3/4) / (n + 1/2)),
    converge in binary64 Newton, then take three guard Newton steps in
    double-double.  Weights are 2 / ((1 - x^2) P_n'(x)^2) in dd.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("order must be an integer")
    if not 1 <= n <= 2000:
        raise ValueError(f"order {n} outside [1, 2000]")
    if n == 1:
        return QuadratureRule(1, (ExtendedReal(0.0),), (ExtendedReal(2.0),))

    m = n // 2  # strictly positive roots; an odd n adds the exact zero root
    k = np.arange(m, dtype=float)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))

    # binary64 pre-convergence
    for it in range(100):
        pn, pnm1 = _legendre_pair_f8(n, x)
        dp = n * (pnm1 - x * pn) / (1.0 - x * x)
        dx = pn / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NewtonConvergenceError(int(np.argmax(np.abs(dx))), n)

    # three dd guard iterations
    xh, xl = x, np.zeros_like(x)
    for _ in range(3):
        (pnh, pnl), (pm1h, pm1l) = _legendre_pair(n, xh, xl)
        th, tl = dd_mul(xh, xl, pnh, pnl)
        th, tl = dd_sub(pm1h, pm1l, th, tl)
        dph, dpl = dd_mul_f(th, tl, float(n))
        x2h, x2l = dd_mul(xh, xl, xh, xl)
        omh, oml = dd_sub(np.ones_like(xh), np.zeros_like(xh), x2h, x2l)
        dph, dpl = dd_div(dph, dpl, omh, oml)
        dxh, dxl = dd_div(pnh, pnl, dph, dpl)
        xh, xl = dd_sub(xh, xl, dxh, dxl)

    # weights on the positive half
    (pnh, pnl), (pm1h, pm1l) = _legendre_pair(n, xh, xl)
    th, tl = dd_mul(xh, xl, pnh, pnl)
    th, tl = dd_sub(pm1h, pm1l, th, tl)
    dph, dpl = dd_mul_f(th, tl, float(n))
    x2h, x2l = dd_mul(xh, xl, xh, xl)
    omh, oml = dd_sub(np.ones_like(xh), np.zeros_like(xh), x2h, x2l)
    dph, dpl = dd_div(dph, dpl, omh, oml)
    dp2h, dp2l = dd_mul(dph, dpl, dph, dpl)
    den_h, den_l = dd_mul(omh, oml, dp2h, dp2l)
    wh, wl = dd_div(2.0 * np.ones_like(xh), np.zeros_like(xh), den_h, den_l)

    pos = [ExtendedReal(float(a), float(b)) for a, b in zip(xh, xl)]
    wts = [ExtendedReal(float(a), float(b)) for a, b in zip(wh, wl)]

    nodes = [-v for v in pos] + ([ExtendedReal(0.0)] if n % 2 else []) + list(reversed(pos))
    weights = list(wts)
    if n % 2:
        # central weight from the same formula at x = 0 in dd
        zh = np.zeros(1)
        (p0h, p0l), (q0h, q0l) = _legendre_pair(n, zh, zh.copy())
        d0h, d0l = dd_mul_f(q0h, q0l, float(n))  # P' (0) = n P_{n-1}(0) since x = 0
        d2h, d2l = dd_mul(d0h, d0l, d0h, d0l)
        w0h, w0l = dd_div(2.0 * np.ones(1), np.zeros(1), d2h, d2l)
        weights = weights + [ExtendedReal(float(w0h[0]), float(w0l[0]))]
    weights = weights + list(reversed(wts))

    return QuadratureRule(n, tuple(nodes), tuple(weights))


# ---------------------------------------------------------------------------
# extended-precision LU log-determinant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDetResult:
    """Outcome of an extended-precision LU factorization.

    ``log_abs_det`` is the natural log of |det|, ``sign`` is the sign of the
    determinant, ``pivot_min`` the smallest absolute pivot seen (a cheap
    conditioning diagnostic).
    """

    log_abs_det: ExtendedReal
    sign: int
    pivot_min: ExtendedReal


def log_det_lu(matrix) -> LogDetResult:
    """log |det| and sign of a square float matrix by LU with partial
    pivoting in double-double.

    The entries are binary64; every update is carried as a (hi, lo) pair.
    Pivots are ranked by their hi component, which equals value order for
    normalized pairs.
    """
    ah = np.array(matrix, dtype=float)
    if ah.ndim != 2 or ah.shape[0] != ah.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(ah)):
        raise ValueError("matrix entries must be finite")
    al = np.zeros(ah.shape)
    n = ah.shape[0]

    sign = 1
    acc_h, acc_l = 0.0, 0.0
    piv_min = None

    for k in range(n):
        col = np.abs(ah[k:, k])
        p = k + int(np.argmax(col))
        if ah[p, k] == 0.0 and al[p, k] == 0.0:
            raise SingularMatrixError(k)
        if p != k:
            ah[[k, p], k:] = ah[[p, k], k:]
            al[[k, p], k:] = al[[p, k], k:]
            sign = -sign

        ph, pl = ah[k, k], al[k, k]
        apv = abs(ExtendedReal(ph, pl))
        if piv_min is None or apv < piv_min:
            piv_min = apv
        if ph < 0.0:
            sign = -sign
        lh, ll = dd_log(apv.hi, apv.lo)
        acc_h, acc_l = dd_add(acc_h, acc_l, lh, ll)

        if k + 1 < n:
            mh, ml = dd_div(ah[k + 1:, k], al[k + 1:, k], ph, pl)
            rh, rl = ah[k, k + 1:], al[k, k + 1:]
            uh, ul = dd_mul(mh[:, None], ml[:, None], rh[None, :], rl[None, :])
            ah[k + 1:, k + 1:], al[k + 1:, k + 1:] = dd_sub(
                ah[k + 1:, k + 1:], al[k + 1:, k + 1:], uh, ul
            )

    piv_min = ExtendedReal(float(piv_min.hi), float(piv_min.lo))
    return LogDetResult(ExtendedReal(float(acc_h), float(acc_l)), sign, piv_min)
