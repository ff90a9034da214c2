"""The three determinantal kernels behind the gap probabilities, on one
interface: the sine kernel, its cubic-phase generalization, and the kernel
built from the Hastings-McLeod column.

Every value is computed by ``kernel_matrix``; ``kernel_eval`` and
``kernel_diag`` read one entry of it.  ``kernel_dx_matrix`` is dK/dx on
the same points, for the x-slope of the determinant; the trig kernels
build it from the same phase.  Evaluation conventions that matter
numerically:

* The trig kernels share one code path.  The phase is factored as
  (lambda - mu) * ((4/3) t (lambda^2 + mu^2 + lambda mu) + x), which kills
  the cancellation of the naive lambda^3 - mu^3 form, and the sine kernel
  is the t = 0 member.  Since 0 * anything-finite is 0.0 and x + 0.0 is x,
  CubicSine(t=0, x) is bit-for-bit the sine kernel; the determinant layer
  relies on this.  Writing the ratio as sin(|d| g)/(pi |d|) with the
  symmetric g makes K(lambda, mu) == K(mu, lambda) exact in floating point.

* Within |lambda - mu| < 1e-6 every variant switches to the diagonal
  formula at the midpoint: the direct quotients lose about six digits
  there while the kernels vary on scale 1, so the midpoint value is
  accurate to ~1e-12, far inside the 1e-9 continuity budget.  The
  column-based kernel marches all such midpoints in one batch.

* The column-based kernel is assembled from exactly antisymmetric
  numerator and denominator arrays, so the value matrix is exactly
  symmetric.  Its imaginary part is rounding: the transport keeps
  conj(psi21) = i psi11 to one rounding, and off the diagonal it measures
  at most 4.7e-14 for x in {-1, 0, 1}, s in {1.0, 1.8, 2.4}, n = 128.
  Anything above 1e-7, off or on the diagonal, raises
  KernelIntegrityError, flagging a transport fault rather than being
  silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .psi import PsiField, _lambda_derivative, psi_columns

__all__ = [
    "CubicSine",
    "KernelIntegrityError",
    "KernelSpec",
    "PII",
    "Sine",
    "kernel_diag",
    "kernel_dx_matrix",
    "kernel_eval",
    "kernel_matrix",
]

_TAYLOR_RADIUS = 1e-6
_IMAG_TOL = 1e-7


class KernelIntegrityError(RuntimeError):
    """The column-based kernel came out measurably complex."""


@dataclass(frozen=True)
class Sine:
    """sin(x(lambda - mu)) / (pi (lambda - mu))."""

    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError(f"x = {self.x} must be finite")


@dataclass(frozen=True)
class CubicSine:
    """sin(Phi) / (pi (lambda - mu)) with the cubic phase interpolation.

    Phi = (4/3) t (lambda^3 - mu^3) + x (lambda - mu); t = 0 is the sine
    kernel, t = 1 the fully cubic one.
    """

    t: float
    x: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t = {self.t} outside [0, 1]")
        if not math.isfinite(self.x):
            raise ValueError(f"x = {self.x} must be finite")


@dataclass(frozen=True)
class PII:
    """(psi21(lambda) psi11(mu) - psi21(mu) psi11(lambda)) / (2 pi (lambda - mu))."""

    x: float
    field: PsiField

    def __post_init__(self):
        if self.field.x != self.x:
            raise ValueError(
                f"field was built at x = {self.field.x}, spec says x = {self.x}"
            )


KernelSpec = Union[Sine, CubicSine, PII]

_TWO_PI = 2.0 * math.pi


def _real(vals: np.ndarray, where: str) -> np.ndarray:
    """Real part of column-based kernel values, after the integrity check."""
    worst = float(np.max(np.abs(vals.imag), initial=0.0))
    if not worst <= _IMAG_TOL:
        raise KernelIntegrityError(
            f"kernel {where} has imaginary part {worst:.3e} (limit {_IMAG_TOL})"
        )
    return vals.real


def _columns_and_diagonal(field: PsiField, lams: np.ndarray):
    """psi11, psi21 at lams, and K(lambda, lambda) there from the lambda-equation."""
    cols = psi_columns(field, lams)
    a, b = cols[:, 0], cols[:, 1]
    d1, d2 = _lambda_derivative(field, lams, a, b)
    return a, b, (d2 * a - d1 * b) / _TWO_PI


def kernel_eval(spec: KernelSpec, lam: float, mu: float) -> float:
    """K(lambda, mu) for any variant: the off-diagonal entry of ``kernel_matrix``."""
    return float(kernel_matrix(spec, [lam, mu])[0, 1])


def kernel_diag(spec: KernelSpec, lam: float) -> float:
    """K(lambda, lambda): the one entry of ``kernel_matrix`` on [lambda]."""
    return float(kernel_matrix(spec, [lam])[0, 0])


def kernel_matrix(spec: KernelSpec, points) -> np.ndarray:
    """K sampled on points x points, vectorized, exactly symmetric.

    The column-based variant reads its columns through ``psi_columns``,
    which marches the uncached ones in one batch; inside a ladder the first
    two rungs' nodes are already cached, and a higher rung's are marched
    here.  Off-diagonal pairs closer than the switch radius take the
    diagonal value at their midpoint, and all those midpoints are marched
    in a second batch.
    """
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PII):
        n = len(pts)
        d = pts[:, None] - pts[None, :]
        near = np.abs(d) < _TAYLOR_RADIUS
        mid = 0.5 * (pts[:, None] + pts[None, :])
        a, b, diag = _columns_and_diagonal(spec.field, pts)
        num = b[:, None] * a[None, :] - b[None, :] * a[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / (_TWO_PI * d)
        _real(k[~near], "matrix")
        out = np.where(near, 0.0, k.real)
        stray = near & ~np.eye(n, dtype=bool)
        if stray.any():
            mids, inv = np.unique(mid[stray], return_inverse=True)
            diag = np.concatenate([diag, _columns_and_diagonal(spec.field, mids)[2][inv]])
        diag = _real(diag, "diagonal")
        np.fill_diagonal(out, diag[:n])
        out[stray] = diag[n:]
        return out

    # Built in place: at n = 256 each n x n temporary is 0.5 MB, and the
    # assembly's peak is what a ladder's top rung adds to a process.
    g, safe, near = _trig_phase(spec, pts)
    np.sin(g, out=g)
    safe *= math.pi
    g /= safe
    t, x = _trig_params(spec)
    i, j = np.nonzero(near)
    mid = 0.5 * (pts[i] + pts[j])
    g[near] = (4.0 * t * mid * mid + x) / math.pi
    return g


def kernel_dx_matrix(spec: KernelSpec, points) -> np.ndarray:
    """dK/dx sampled on points x points, vectorized, exactly symmetric.

    For the trig kernels the phase is linear in x with slope lambda - mu,
    so dK/dx = cos(Phi) / pi, and 1/pi on pairs inside the switch radius.
    For the column-based kernel the x-equation of the Lax pair gives
    dK/dx = i (psi21(lambda) psi11(mu) + psi21(mu) psi11(lambda)) / (2 pi),
    which has no quotient and no diagonal special case; its columns are
    the ones ``kernel_matrix`` marched on the same points, read from the
    cache, and the values pass the same imaginary-part check.
    """
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PII):
        cols = psi_columns(spec.field, pts)
        a, b = cols[:, 0], cols[:, 1]
        num = b[:, None] * a[None, :]
        num = num + num.T
        return _real(1j * num / _TWO_PI, "x-derivative")
    g, _, near = _trig_phase(spec, pts)
    np.cos(g, out=g)
    g /= math.pi
    g[near] = 1.0 / math.pi
    return g


def _trig_params(spec: KernelSpec) -> tuple:
    return (spec.t if isinstance(spec, CubicSine) else 0.0), spec.x


def _trig_phase(spec: KernelSpec, pts: np.ndarray) -> tuple:
    """The trig kernels' phase Phi = |lambda - mu| g on points x points, with
    the symmetric g of the module docstring, built in place.  Pairs inside
    the switch radius get |lambda - mu| = 1, so their entry is g alone and
    the caller overwrites it.  Returns (Phi, |lambda - mu|, near mask)."""
    t, x = _trig_params(spec)
    d = pts[:, None] - pts[None, :]
    near = np.abs(d) < _TAYLOR_RADIUS
    sq = pts ** 2
    g = sq[:, None] + sq[None, :]
    g += pts[:, None] * pts[None, :]
    g *= (4.0 / 3.0) * t
    g += x
    safe = np.abs(d, out=d)
    safe[near] = 1.0
    g *= safe
    return g, safe, near
