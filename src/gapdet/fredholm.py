"""Nystrom evaluation of log det(I - K) on (-s, s), with extended-precision
elimination, and its two logarithmic derivatives.

The discretization is the standard symmetrized one: with Gauss-Legendre
nodes and weights scaled to the interval, M[i][j] = delta_ij -
sqrt(w_i w_j) K(x_i, x_j).  The nodes are mirrored, x_{n-1-i} = -x_i, and
every kernel here is even, K(-a, -b) = K(a, b), so M is centrosymmetric:
on the even and on the odd vectors it acts as two blocks of order n/2
(``_fold``; (n + 1)/2 and (n - 1)/2 for odd n), and det M = det(even)
det(odd), the even/odd split of the sine-kernel determinant (Gaudin
1961).  At odd n the odd block is bordered by a unit row and column, so
every rung is one (2, m, m) stack of two half-size blocks, a quarter of
the work of eliminating M, and a PII rung marches its columns at the
non-negative nodes only.  M is assembled in binary64 from kernel values
of about that accuracy: the trig entries are rounding-level, apart from
the ~1e-12 midpoint rule near the diagonal, and the PII columns agree with
a DOP853 march to a few 1e-13 for x >= -1 (``psi``).  M is folded, and
the stack is eliminated in double-double, in one call at every n.  That
buys no accuracy: even at log det ~ -62 the smallest pivot is moderate
(0.56 for PII at x = 1, s = 2, n = 256), so the binary64 assembly sets
the error.  A correlation kernel has
0 <= K < I, so a resolved M, and with it each block, is positive
definite, and a rung with a block that is not is refused as
under-resolved.  The double-double LDL^T stays until a binary64
factorization, trusted by the conditioning of I - K, replaces it; log
det is the binary64 sum of the two words of each block's log det, and
the ladder's gap is a binary64 difference.

The slopes need no determinant, only one binary64 Cholesky factorization
of the same stack per rung, block = L L^T.  The factor gates the rung,
refused as the determinant's is when it finds a block not positive
definite, and gives its number (Tracy and Widom 1994; Bornemann 2010):

    d/ds log det = -(R(s, s) + R(-s, -s)) = -2 R(s, s),
    d/dx log det = -tr((I - K)^-1 dK/dx),

R = K (I - K)^-1 the resolvent, even as K is.  R(s, s) = K(s, s) +
b^T M^-1 b with b_i = sqrt(w_i) K(x_i, s), and dK/dx = G G^T has rank
two, so the trace is tr(g^T M^-1 g) with g = W^1/2 G.  Each quadratic
form is |L^-1 p|^2 summed over the two blocks, p the even or odd part of b
or of g, so one solve with L per block gives it.  They run on the
determinant's ladder, whose gap test for a slope is relative: successive
rungs agree within 1e-8 max(1, |slope|), which at |d/ds| = 162 (PII,
x = 1, s = 2) is the rounding floor of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import psi
from .kernels import CubicSine, KernelSpec, PII, kernel_dx_factors, kernel_matrix
from .mpnum import NotPositiveDefiniteError, gauss_legendre, log_det_lu

__all__ = [
    "DetEvaluation",
    "DetIntegrityError",
    "dlogdet_ds",
    "dlogdet_dx",
    "log_det",
    "log_det_converged",
]

_N_MIN, _N_MAX = 8, 400
_LADDER = (32, 64, 128, 256)  # doubling from 32 up to the order cap
_LADDER_TOL = 1e-8


class DetIntegrityError(RuntimeError):
    """I - K is not positive definite, or det(I - K) left (0, 1]; the
    discretization or kernel is at fault."""


@dataclass(frozen=True)
class DetEvaluation:
    """One determinant evaluation and its trust diagnostics."""

    spec: KernelSpec
    s: float
    n: int
    log_det: float
    pivot_min: float
    converged: bool


def _s_cap(spec: KernelSpec) -> float:
    """Largest supported half-width for this kernel.

    The cap marks the band in which the binary64 assembly is trusted: 8 for
    the plain sine kernel, whose log det decays slowly (~ -(xs)^2/2), and
    2.4 for the cubic-phase and rank-structured kernels.  It is not set by a
    precision floor of the elimination: at s = 2.4, n = 256 the smallest
    LDL^T pivot of the two folded blocks of I - K is 0.213 for PII(x=1),
    0.358 for PII(x=-1) and 0.213 for CubicSine(1, 1) (0.208, 0.358 and
    0.208 for I - K eliminated whole), at log det -165, -98 and -165.
    """
    if isinstance(spec, CubicSine) and spec.t == 0.0:
        return 8.0
    return 2.4


def _check_s(spec: KernelSpec, s: float):
    cap = _s_cap(spec)
    if not 0.0 <= s <= cap:
        raise ValueError(f"s = {s} outside [0, {cap}] for {type(spec).__name__}")


def _fold(a: np.ndarray) -> np.ndarray:
    """The even and odd blocks of a symmetric, centrosymmetric order-n
    matrix on mirrored nodes, whose determinants multiply to its own, as
    one (2, m, m) stack, m = (n + 1) // 2.

    They are A in the orthonormal bases (e_i +- e_-i)/sqrt(2) of the even
    and the odd vectors.  With A++ the rows and columns of the positive
    nodes, A+- those rows against the negative nodes and J the reversal of
    node order, even = A++ + A+- J and odd = A++ - A+- J: one binary64
    addition per entry, so their diagonals keep A's roundings.  For odd n
    the middle node (0) leads the even block, its cross entries times
    sqrt(2), and the odd block, one order short, is bordered by a last
    unit row and column.  The border leaves the odd block's determinant,
    and every pivot an elimination or a factorization takes before it, as
    they are, and adds a last pivot of exactly 1.  Both blocks are exactly
    symmetric when A is exactly centrosymmetric off its diagonal.
    """
    n = len(a)
    h = n // 2
    top, cross = a[n - h:, n - h:], a[n - h:, h - 1::-1]
    even, odd = top + cross, top - cross
    if n % 2:
        edge = math.sqrt(2.0) * a[h, n - h:]
        even = np.block([[a[h, h], edge], [edge[:, None], even]])
        odd = np.block([[odd, np.zeros((h, 1))], [np.zeros((1, h)), 1.0]])
    return np.stack([even, odd])


def _fold_rows(v: np.ndarray) -> np.ndarray:
    """The even and odd parts v+ +- J v- of an (n, k) array on mirrored
    nodes, n even, stacked as (2, n/2, k): sqrt(2) times v in the bases of
    ``_fold``, so a column's v^T A^-1 v is half the sum over the two blocks
    of part^T block^-1 part."""
    h = len(v) // 2
    top, cross = v[h:], v[h - 1::-1]
    return np.stack([top + cross, top - cross])


def _nystrom(spec: KernelSpec, s: float, n: int, extra=()) -> tuple:
    """(blocks, nodes, sqrt(w), K) of the order-n rung on (-s, s), with K on
    the nodes and then the ``extra`` points, and blocks the ``_fold`` stack
    of M = I - W^1/2 K W^1/2 on the nodes: the nodes are mirrored and every
    kernel is even, so M is centrosymmetric, and only its two blocks are
    kept."""
    rule = gauss_legendre(n)
    xi, sq = s * rule.nodes_f8, np.sqrt(s * rule.weights_f8)
    k = kernel_matrix(spec, np.concatenate([xi, extra]) if len(extra) else xi)
    return _fold(np.eye(n) - (sq[:, None] * sq[None, :]) * k[:n, :n]), xi, sq, k


def log_det(spec: KernelSpec, s: float, n: int) -> DetEvaluation:
    """log det(I - K) on (-s, s) at a fixed quadrature order.

    The rung's ``_fold`` stack is eliminated in one call at every n: log
    det is the sum of its blocks', and ``pivot_min`` the smaller of their
    smallest pivots, which is never below the smallest eigenvalue of M.
    An odd n's border adds a pivot of 1, which moves neither: a rung that
    is returned has det <= 1, so one of its pivots is at most 1.  A block
    that is not positive definite raises DetIntegrityError.
    """
    if not _N_MIN <= n <= _N_MAX:
        raise ValueError(f"n = {n} outside [{_N_MIN}, {_N_MAX}]")
    _check_s(spec, s)
    if s == 0.0:
        return DetEvaluation(spec, s, n, 0.0, 1.0, True)

    # only the two blocks are kept: K and M are freed before the elimination
    blocks = _nystrom(spec, s, n)[0]
    try:
        results = log_det_lu(blocks)
    except NotPositiveDefiniteError:
        raise DetIntegrityError(f"I - K not positive definite at s = {s}, n = {n}") from None
    value, pivot_min = 0.0, math.inf
    for res in results:
        value += res.log_abs_det[0] + res.log_abs_det[1]
        pivot_min = min(pivot_min, res.pivot_min)
    if not value <= 0.0:
        raise DetIntegrityError(
            f"det(I - K) outside (0, 1]: log det {value:.6g} at s = {s}, n = {n}"
        )
    return DetEvaluation(spec, s, n, value, pivot_min, False)


def _ladder(spec: KernelSpec, s: float, rung, agree, extra=()):
    """(value, converged) of the doubling ladder shared by the determinant
    and the two slopes: ``rung(spec, s, n)`` is evaluated from n = 32 up,
    and the first value that ``agree``s with the rung below it is returned.

    Stops at n = 256 (the next doubling exceeds the order cap) and reports
    converged = False when agreement was not reached.  A rung below the top
    that raises DetIntegrityError is under-resolved and skipped: the gap
    is only taken between two successive rungs that both hold, and a
    failure at the top rung propagates.  For a PII spec the non-negative
    nodes of the first two rungs, which the first gap compares, are marched
    in one batch before the first rung, together with any ``extra`` points
    the rung samples the kernel at; a higher rung's assembly marches its
    own when the ladder reaches it.  The field's column cache is emptied
    first: its keys are s * |node|, which no ladder at another s asks for,
    so a field shared across s holds one ladder's columns at a time.
    """
    _check_s(spec, s)
    if s == 0.0:
        return rung(spec, s, _LADDER[0]), True
    if isinstance(spec, PII):
        spec.field.cache.clear()
        lams = [s * gauss_legendre(n).nodes_f8 for n in _LADDER[:2]]
        psi.psi_columns(spec.field, np.concatenate(lams + [np.asarray(extra, dtype=float)]))
    prev = None
    for n in _LADDER:
        try:
            val = rung(spec, s, n)
        except DetIntegrityError:
            if n == _LADDER[-1]:
                raise
            prev = None
            continue
        if prev is not None and agree(val, prev):
            return val, True
        prev = val
    return val, False


def log_det_converged(spec: KernelSpec, s: float) -> DetEvaluation:
    """Doubles n from 32 until successive values agree within 1e-8.

    The rungs are ``log_det``; see ``_ladder`` for the order cap, the skip
    rule and the up-front march.
    """
    ev, converged = _ladder(
        spec, s, log_det,
        lambda ev, prev: abs(ev.log_det - prev.log_det) <= _LADDER_TOL)
    return replace(ev, converged=True) if converged else ev


def _slope_agree(val: float, prev: float) -> bool:
    return abs(val - prev) <= _LADDER_TOL * max(1.0, abs(val))


def _quad(blocks: np.ndarray, v: np.ndarray, s: float, n: int) -> float:
    """2 tr(v^T M^-1 v) for an (n, k) array v on the nodes, n even, from
    the rung's ``_fold`` stack: |L^-1 p|^2 summed over the two blocks,
    block = L L^T, and over the columns p of their parts (``_fold_rows``).
    A block that the stacked Cholesky factorization finds not positive
    definite, or a sum that is not finite, raises DetIntegrityError.
    numpy has no triangular solve, so a general one with L stands in."""
    try:
        value = float(np.sum(np.linalg.solve(np.linalg.cholesky(blocks), _fold_rows(v)) ** 2))
    except np.linalg.LinAlgError:
        raise DetIntegrityError(f"I - K not positive definite at s = {s}, n = {n}") from None
    if not math.isfinite(value):
        raise DetIntegrityError(f"I - K solve not finite at s = {s}, n = {n}")
    return value


def _ds_rung(spec: KernelSpec, s: float, n: int) -> float:
    """-2 R(s, s) at order n, with R(s, s) = K(s, s) + b^T M^-1 b,
    b = W^1/2 K(x., s), from one kernel assembly on the nodes and s; the
    kernel is even, so R(-s, -s) = R(s, s)."""
    blocks, _, sq, k = _nystrom(spec, s, n, extra=[s])
    return -(2.0 * float(k[n, n]) + _quad(blocks, sq[:, None] * k[:n, n:], s, n))


def _dx_rung(spec: KernelSpec, s: float, n: int) -> float:
    """-tr(M^-1 W^1/2 dK/dx W^1/2) = -tr(g^T M^-1 g) at order n, with
    g = W^1/2 G and dK/dx = G G^T (``kernel_dx_factors``)."""
    blocks, xi, sq, _ = _nystrom(spec, s, n)
    return -0.5 * _quad(blocks, sq[:, None] * kernel_dx_factors(spec, xi), s, n)


def dlogdet_ds(spec: KernelSpec, s: float) -> float:
    """d/ds log det(I - K) = -(R(s, s) + R(-s, -s)) = -2 R(s, s), R the
    resolvent kernel.

    Each rung is one binary64 Cholesky factorization of the ``_fold``
    stack of ``log_det``; the ladder stops when successive rungs agree
    within 1e-8 relative to max(1, |slope|).  At s = 0 this is -2 K(0, 0).
    A ladder that reaches n = 256 without two rungs agreeing returns its
    top rung, with no flag to say so: 18 of the 36 slope ladders of PII
    and CubicSine(1, x), x in {-1, 0, 1}, at s in {2.2, 2.3, 2.4} end that
    way, where ``log_det_converged`` reports converged = False.
    """
    return _ladder(spec, s, _ds_rung, _slope_agree, extra=(s,))[0]


def dlogdet_dx(spec: KernelSpec, s: float) -> float:
    """d/dx log det(I - K) = -tr((I - K)^-1 dK/dx), on the ladder of
    ``dlogdet_ds``, and like it returned without a convergence flag.
    Nothing is shifted in x, so every x the kernel accepts is valid, up to
    the edge of its domain.
    """
    return _ladder(spec, s, _dx_rung, _slope_agree)[0]
