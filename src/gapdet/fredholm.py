"""Nystrom evaluation of log det(I - K) on (-s, s), with extended-precision
elimination, and its two logarithmic derivatives.

The discretization is the standard symmetrized one: with Gauss-Legendre
nodes and weights scaled to the interval, M[i][j] = delta_ij -
sqrt(w_i w_j) K(x_i, x_j).  The matrix is assembled in binary64 (the kernel
itself is only good to ~1e-9 anyway) and eliminated in double-double.  That
buys no accuracy: even at log det ~ -62 the smallest pivot is moderate (0.56
for PII at x = 1, s = 2, n = 256), so the binary64 assembly sets the error.
A correlation kernel has 0 <= K < I, so a resolved M is positive definite,
and a rung whose M is not is refused as under-resolved.  The double-double
LDL^T stays until a binary64 factorization, trusted by the conditioning of
I - K, replaces it; log det leaves it as the binary64 sum of its two
words, and the ladder's gap is a binary64 difference.

The slopes need no determinant, only one binary64 solve with the same M
per rung, refused as the determinant's rung is when a binary64 Cholesky
factorization finds M not positive definite (Tracy and Widom 1994;
Bornemann 2010):

    d/ds log det = -(R(s, s) + R(-s, -s)),   R = K (I - K)^-1 the resolvent,
    d/dx log det = -tr((I - K)^-1 dK/dx).

R(y, y) = K(y, y) + b^T M^-1 b with b_i = sqrt(w_i) K(x_i, y), and the
trace is tr(M^-1 W^1/2 dK/dx W^1/2).  They run on the determinant's
ladder, whose gap test for a slope is relative: successive rungs agree
within 1e-8 max(1, |slope|), which at |d/ds| = 162 (PII, x = 1, s = 2) is
the rounding floor of the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import psi
from .kernels import CubicSine, KernelSpec, PII, Sine, kernel_dx_matrix, kernel_matrix
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
    LDL^T pivot of I - K is 0.21 for PII(x=1), 0.36 for PII(x=-1) and 0.21
    for CubicSine(1, 1), at log det -165, -98 and -165.
    """
    if isinstance(spec, Sine) or (isinstance(spec, CubicSine) and spec.t == 0.0):
        return 8.0
    return 2.4


def _check_s(spec: KernelSpec, s: float):
    cap = _s_cap(spec)
    if not 0.0 <= s <= cap:
        raise ValueError(f"s = {s} outside [0, {cap}] for {type(spec).__name__}")


def _nystrom(spec: KernelSpec, s: float, n: int, extra=()) -> tuple:
    """(M, nodes, sqrt(w), K) of the order-n rung on (-s, s), with K on the
    nodes and then the ``extra`` points, M = I - W^1/2 K W^1/2 on the nodes."""
    rule = gauss_legendre(n)
    xi, sq = s * rule.nodes_f8, np.sqrt(s * rule.weights_f8)
    k = kernel_matrix(spec, np.concatenate([xi, extra]) if len(extra) else xi)
    return np.eye(n) - (sq[:, None] * sq[None, :]) * k[:n, :n], xi, sq, k


def log_det(spec: KernelSpec, s: float, n: int) -> DetEvaluation:
    """log det(I - K) on (-s, s) at a fixed quadrature order."""
    if not _N_MIN <= n <= _N_MAX:
        raise ValueError(f"n = {n} outside [{_N_MIN}, {_N_MAX}]")
    _check_s(spec, s)
    if s == 0.0:
        return DetEvaluation(spec, s, n, 0.0, 1.0, True)

    # only M is kept: K is freed before the elimination
    try:
        res = log_det_lu(_nystrom(spec, s, n)[0])
    except NotPositiveDefiniteError as e:
        raise DetIntegrityError(f"I - K not positive definite at s = {s}, n = {n}: {e}") from None
    value = res.log_abs_det[0] + res.log_abs_det[1]
    if not value <= 0.0:
        raise DetIntegrityError(
            f"det(I - K) outside (0, 1]: log det {value:.6g} at s = {s}, n = {n}"
        )
    return DetEvaluation(spec, s, n, value, res.pivot_min, False)


def _ladder(spec: KernelSpec, s: float, rung, agree, extra=()):
    """(value, converged) of the doubling ladder shared by the determinant
    and the two slopes: ``rung(spec, s, n)`` is evaluated from n = 32 up,
    and the first value that ``agree``s with the rung below it is returned.

    Stops at n = 256 (the next doubling exceeds the order cap) and reports
    converged = False when agreement was not reached.  A rung below the top
    that raises DetIntegrityError is under-resolved and skipped: the gap
    is only taken between two successive rungs that both hold, and a
    failure at the top rung propagates.  For a PII spec the nodes of the
    first two rungs, which the first gap compares, are marched in one
    batch before the first rung, together with any ``extra`` points the
    rung samples the kernel at; a higher rung's assembly marches its own
    nodes when the ladder reaches it.  The field's column cache is emptied
    first: its keys are s * node, which no ladder at another s asks for,
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


def _solve(m: np.ndarray, rhs: np.ndarray, s: float, n: int) -> np.ndarray:
    """M^-1 rhs in binary64, or DetIntegrityError when I - K is singular,
    the solution is not finite, or I - K is not positive definite (its
    binary64 Cholesky factorization fails), the rung ``log_det`` refuses."""
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as e:
        raise DetIntegrityError(f"I - K not solvable at s = {s}, n = {n}: {e}") from None
    if not np.isfinite(sol).all():
        raise DetIntegrityError(f"I - K solve not finite at s = {s}, n = {n}")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise DetIntegrityError(f"I - K not positive definite at s = {s}, n = {n}") from None
    return sol


def _ds_rung(spec: KernelSpec, s: float, n: int) -> float:
    """-(R(s, s) + R(-s, -s)) at order n, with R(y, y) = K(y, y) + b^T M^-1 b,
    b = W^1/2 K(x., y), from one kernel assembly on the nodes and +-s."""
    m, _, sq, k = _nystrom(spec, s, n, extra=[s, -s])
    b = sq[:, None] * k[:n, n:]
    r = np.diagonal(k[n:, n:]) + np.einsum("ij,ij->j", b, _solve(m, b, s, n))
    return -float(r[0] + r[1])


def _dx_rung(spec: KernelSpec, s: float, n: int) -> float:
    """-tr(M^-1 W^1/2 dK/dx W^1/2) at order n."""
    m, xi, sq, _ = _nystrom(spec, s, n)
    w = sq[:, None] * sq[None, :]
    return -float(np.trace(_solve(m, w * kernel_dx_matrix(spec, xi), s, n)))


def dlogdet_ds(spec: KernelSpec, s: float) -> float:
    """d/ds log det(I - K) = -(R(s, s) + R(-s, -s)), R the resolvent kernel.

    Each rung is one binary64 solve with the Nystrom matrix of ``log_det``;
    the ladder stops when successive rungs agree within 1e-8 relative to
    max(1, |slope|).  At s = 0 this is -2 K(0, 0).
    """
    return _ladder(spec, s, _ds_rung, _slope_agree, extra=(s, -s))[0]


def dlogdet_dx(spec: KernelSpec, s: float) -> float:
    """d/dx log det(I - K) = -tr((I - K)^-1 dK/dx), on the ladder of
    ``dlogdet_ds``.  Nothing is shifted in x, so every x the kernel accepts
    is valid, up to the edge of its domain.
    """
    return _ladder(spec, s, _dx_rung, _slope_agree)[0]
