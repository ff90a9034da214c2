"""Nystrom evaluation of log det(I - K) on (-s, s), with extended-precision
elimination and centered logarithmic derivatives.

The discretization is the standard symmetrized one: with Gauss-Legendre
nodes and weights scaled to the interval, M[i][j] = delta_ij -
sqrt(w_i w_j) K(x_i, x_j).  The matrix is assembled in binary64 (the kernel
itself is only good to ~1e-9 anyway) and eliminated in double-double.  That
buys no accuracy: even at log det ~ -62 the smallest pivot is moderate (0.56
for PII at x = 1, s = 2, n = 256), so the binary64 assembly sets the error.
The double-double LU stays until a binary64 factorization, trusted by the
conditioning of I - K, replaces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import psi
from .kernels import CubicSine, KernelSpec, PII, Sine, kernel_matrix
from .mpnum import ExtendedReal, gauss_legendre, log_det_lu

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
    """det(I - K) left (0, 1]; the discretization or kernel is at fault."""


@dataclass(frozen=True)
class DetEvaluation:
    """One determinant evaluation and its trust diagnostics."""

    spec: KernelSpec
    s: float
    n: int
    log_det: ExtendedReal
    pivot_min: ExtendedReal
    converged: bool


def _s_cap(spec: KernelSpec) -> float:
    """Largest supported half-width for this kernel.

    The cap marks the band in which the binary64 assembly is trusted: 8 for
    the plain sine kernel, whose log det decays slowly (~ -(xs)^2/2), and
    2.4 for the cubic-phase and rank-structured kernels.  It is not set by a
    precision floor of the elimination: at s = 2.4, n = 256 the smallest
    pivot of I - K is 2.7e-4 for PII(x=1), 1.0e-2 for PII(x=-1) and 1.2e-4
    for CubicSine(1, 1), at log det -163, -98 and -165.
    """
    if isinstance(spec, Sine) or (isinstance(spec, CubicSine) and spec.t == 0.0):
        return 8.0
    return 2.4


_rules: dict = {}


def _rule(n: int):
    if n not in _rules:
        _rules[n] = gauss_legendre(n)
    return _rules[n]


def _check_s(spec: KernelSpec, s: float):
    cap = _s_cap(spec)
    if not 0.0 <= s <= cap:
        raise ValueError(f"s = {s} outside [0, {cap}] for {type(spec).__name__}")


def log_det(spec: KernelSpec, s: float, n: int) -> DetEvaluation:
    """log det(I - K) on (-s, s) at a fixed quadrature order."""
    if not _N_MIN <= n <= _N_MAX:
        raise ValueError(f"n = {n} outside [{_N_MIN}, {_N_MAX}]")
    _check_s(spec, s)
    if s == 0.0:
        return DetEvaluation(spec, s, n, ExtendedReal(0.0), ExtendedReal(1.0), True)

    rule = _rule(n)
    xi = s * rule.nodes_f8
    wi = s * rule.weights_f8
    sq = np.sqrt(wi)
    m = np.eye(n) - (sq[:, None] * sq[None, :]) * kernel_matrix(spec, xi)
    res = log_det_lu(m)
    if res.sign != 1 or not float(res.log_abs_det) <= 0.0:
        raise DetIntegrityError(
            f"det(I - K) outside (0, 1]: sign {res.sign}, "
            f"log|det| {float(res.log_abs_det):.6g} at s = {s}, n = {n}"
        )
    return DetEvaluation(spec, s, n, res.log_abs_det, res.pivot_min, False)


def log_det_converged(spec: KernelSpec, s: float) -> DetEvaluation:
    """Doubles n from 32 until successive values agree within 1e-8.

    Stops at n = 256 (the next doubling exceeds the order cap) and reports
    converged = False when agreement was not reached.  A rung below the top
    whose determinant leaves (0, 1] is under-resolved and skipped: the gap
    is only taken between two successive rungs that both hold, and a
    failure at the top rung raises DetIntegrityError.  For a PII spec the
    nodes of the first two rungs, which the first gap compares, are marched
    in one batch before the first rung; a higher rung's assembly marches
    its own nodes when the ladder reaches it.
    """
    _check_s(spec, s)
    if s == 0.0:
        return log_det(spec, s, _LADDER[0])
    if isinstance(spec, PII):
        psi.psi_columns(spec.field, np.concatenate([s * _rule(n).nodes_f8 for n in _LADDER[:2]]))
    prev = None
    for n in _LADDER:
        try:
            ev = log_det(spec, s, n)
        except DetIntegrityError:
            if n == _LADDER[-1]:
                raise
            prev = None
            continue
        if prev is not None and abs(float(ev.log_det - prev.log_det)) <= _LADDER_TOL:
            return replace(ev, converged=True)
        prev = ev
    return ev


def _check_h(s: float, h: float):
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"h = {h} outside (0, 1e-3]")
    if s - h <= 0.0:
        raise ValueError(f"s - h = {s - h} must be positive")


def dlogdet_ds(spec: KernelSpec, s: float, h: float = 1e-3) -> float:
    """d/ds log det(I - K) by a centered difference at converged orders.

    The subtraction is done in double-double before rounding: the two
    log-determinants can exceed 100 in magnitude while their difference is
    O(h), so differencing in binary64 would cost ~2 digits.
    """
    _check_h(s, h)
    hi = log_det_converged(spec, s + h)
    lo = log_det_converged(spec, s - h)
    return float(hi.log_det - lo.log_det) / (2.0 * h)


def _shift_x(spec: KernelSpec, dx: float) -> KernelSpec:
    if isinstance(spec, Sine):
        return Sine(x=spec.x + dx)
    if isinstance(spec, CubicSine):
        return CubicSine(t=spec.t, x=spec.x + dx)
    f = spec.field
    shifted = psi.PsiField(x=spec.x + dx, hm=f.hm, tol=f.tol)
    return PII(x=spec.x + dx, field=shifted)


def dlogdet_dx(spec: KernelSpec, s: float, h: float = 1e-3) -> float:
    """d/dx log det(I - K), differenced in the kernel parameter.

    x - h and x + h must both be parameters the kernel accepts (for PII, in
    the solved window and not left of -10); the ValueError otherwise names
    the x and h given, not the shifted x.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"h = {h} outside (0, 1e-3]")
    try:
        up, down = _shift_x(spec, +h), _shift_x(spec, -h)
    except ValueError:
        raise ValueError(
            f"x = {spec.x} with h = {h}: x - h or x + h lies outside the kernel's domain"
        ) from None
    hi = log_det_converged(up, s)
    lo = log_det_converged(down, s)
    return float(hi.log_det - lo.log_det) / (2.0 * h)
