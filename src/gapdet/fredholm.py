"""Nystrom evaluation of log det(I - K) on (-s, s), with extended-precision
elimination and centered logarithmic derivatives.

The discretization is the standard symmetrized one: with Gauss-Legendre
nodes and weights scaled to the interval, M[i][j] = delta_ij -
sqrt(w_i w_j) K(x_i, x_j).  The matrix is assembled in binary64 (the kernel
itself is only good to ~1e-9 anyway) and eliminated in double-double,
because the determinant collapses through ~55 orders of magnitude near the
top of the supported s range and the pivots, not the entries, are where the
cancellation lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import CubicSine, KernelSpec, PII, Sine, kernel_matrix
from .mpnum import ExtendedReal, gauss_legendre, log_det_lu
from .psi import PsiField

__all__ = [
    "DetEvaluation",
    "DetIntegrityError",
    "dlogdet_ds",
    "dlogdet_dx",
    "log_det",
    "log_det_converged",
]

_N_MIN, _N_MAX = 8, 400
_LADDER_START = 32
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

    The cubic-phase kernels push the determinant toward the double-double
    precision floor by s = 2.4; the plain sine kernel decays much more
    slowly (log det ~ -(xs)^2/2) and is fine out to 8.
    """
    if isinstance(spec, Sine) or (isinstance(spec, CubicSine) and spec.t == 0.0):
        return 8.0
    return 2.4


_rules: dict = {}


def _rule(n: int):
    if n not in _rules:
        _rules[n] = gauss_legendre(n)
    return _rules[n]


def log_det(spec: KernelSpec, s: float, n: int) -> DetEvaluation:
    """log det(I - K) on (-s, s) at a fixed quadrature order."""
    if not _N_MIN <= n <= _N_MAX:
        raise ValueError(f"n = {n} outside [{_N_MIN}, {_N_MAX}]")
    cap = _s_cap(spec)
    if not 0.0 <= s <= cap:
        raise ValueError(f"s = {s} outside [0, {cap}] for {type(spec).__name__}")
    if s == 0.0:
        return DetEvaluation(spec, s, n, ExtendedReal(0.0), ExtendedReal(1.0), True)

    rule = _rule(n)
    xi = s * rule.nodes_f8
    wi = s * rule.weights_f8
    sq = np.sqrt(wi)
    m = np.eye(n) - (sq[:, None] * sq[None, :]) * kernel_matrix(spec, xi)
    res = log_det_lu(m)
    if res.sign != 1 or float(res.log_abs_det) > 0.0:
        raise DetIntegrityError(
            f"det(I - K) outside (0, 1]: sign {res.sign}, "
            f"log|det| {float(res.log_abs_det):.6g} at s = {s}, n = {n}"
        )
    return DetEvaluation(spec, s, n, res.log_abs_det, res.pivot_min, False)


def log_det_converged(spec: KernelSpec, s: float) -> DetEvaluation:
    """Doubles n from 32 until successive values agree within 1e-8.

    Stops at n = 256 (the next doubling exceeds the order cap) and reports
    converged = False when agreement was not reached.
    """
    ev = log_det(spec, s, _LADDER_START)
    if s == 0.0:
        return ev
    converged = False
    n = _LADDER_START
    while 2 * n <= _N_MAX:
        n *= 2
        nxt = log_det(spec, s, n)
        delta = abs(float(nxt.log_det - ev.log_det))
        ev = nxt
        if delta <= _LADDER_TOL:
            converged = True
            break
    return replace(ev, converged=converged)


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
    shifted = PsiField(x=spec.x + dx, hm=f.hm, x_start=f.x_start, tol=f.tol)
    return PII(x=spec.x + dx, field=shifted)


def dlogdet_dx(spec: KernelSpec, s: float, h: float = 1e-3) -> float:
    """d/dx log det(I - K), differenced in the kernel parameter."""
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"h = {h} outside (0, 1e-3]")
    hi = log_det_converged(_shift_x(spec, +h), s)
    lo = log_det_converged(_shift_x(spec, -h), s)
    return float(hi.log_det - lo.log_det) / (2.0 * h)
