"""The three determinantal kernels behind the gap probabilities, on one
interface: the sine kernel, its cubic-phase generalization, and the kernel
built from the Hastings-McLeod column.

Evaluation conventions that matter numerically:

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
  accurate to ~1e-12, far inside the 1e-9 continuity budget.

* The column-based kernel is assembled from exactly antisymmetric
  numerator and denominator arrays, so the value matrix is exactly
  symmetric; its imaginary part must vanish identically (the transport
  preserves conj(psi21) = i psi11 to the last bit) and anything above
  1e-7 raises KernelIntegrityError, flagging a transport fault rather
  than being silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .psi import PsiField, psi_column, psi_column_derivative, psi_columns

__all__ = [
    "CubicSine",
    "KernelIntegrityError",
    "KernelSpec",
    "PII",
    "Sine",
    "kernel_diag",
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


def _trig_t(spec) -> float:
    return spec.t if isinstance(spec, CubicSine) else 0.0


def _trig_diag(t: float, x: float, lam: float) -> float:
    return (4.0 * t * lam * lam + x) / math.pi


def _trig_eval(t: float, x: float, lam: float, mu: float) -> float:
    d = lam - mu
    if abs(d) < _TAYLOR_RADIUS:
        return _trig_diag(t, x, 0.5 * (lam + mu))
    ad = abs(d)
    g = (4.0 / 3.0) * t * ((lam * lam + mu * mu) + lam * mu) + x
    return math.sin(ad * g) / (math.pi * ad)


def _pii_value(num: complex, den: float) -> float:
    val = num / den
    if abs(val.imag) > _IMAG_TOL:
        raise KernelIntegrityError(
            f"kernel value has imaginary part {val.imag:.3e} (limit {_IMAG_TOL})"
        )
    return val.real


def _pii_diag(spec: PII, lam: float) -> float:
    col = psi_column(spec.field, lam)
    d1, d2 = psi_column_derivative(spec.field, lam)
    return _pii_value(d2 * col.psi11 - d1 * col.psi21, _TWO_PI)


def kernel_eval(spec: KernelSpec, lam: float, mu: float) -> float:
    """K(lambda, mu) for any variant, with the near-diagonal handled."""
    if isinstance(spec, PII):
        if abs(lam - mu) < _TAYLOR_RADIUS:
            return _pii_diag(spec, 0.5 * (lam + mu))
        ca, cb = psi_columns(spec.field, [lam, mu])
        num = ca.psi21 * cb.psi11 - cb.psi21 * ca.psi11
        return _pii_value(num, _TWO_PI * (lam - mu))
    return _trig_eval(_trig_t(spec), spec.x, lam, mu)


def kernel_diag(spec: KernelSpec, lam: float) -> float:
    """K(lambda, lambda), from the closed form or the spectral derivative."""
    if isinstance(spec, PII):
        return _pii_diag(spec, lam)
    return _trig_diag(_trig_t(spec), spec.x, lam)


def kernel_matrix(spec: KernelSpec, points) -> np.ndarray:
    """K sampled on points x points, vectorized, exactly symmetric.

    The column-based variant reads its columns through ``psi_columns``,
    which marches the uncached ones in one batch; inside a ladder every
    rung's nodes are already cached.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d = pts[:, None] - pts[None, :]
    near = np.abs(d) < _TAYLOR_RADIUS
    mid = 0.5 * (pts[:, None] + pts[None, :])

    if isinstance(spec, PII):
        cols = psi_columns(spec.field, pts)
        a = np.array([c.psi11 for c in cols])
        b = np.array([c.psi21 for c in cols])
        num = b[:, None] * a[None, :] - b[None, :] * a[:, None]
        den = _TWO_PI * d
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / den
        worst = float(np.max(np.abs(k.imag[~near]), initial=0.0))
        if worst > _IMAG_TOL:
            raise KernelIntegrityError(
                f"kernel matrix has imaginary part {worst:.3e} (limit {_IMAG_TOL})"
            )
        out = np.where(near, 0.0, k.real)
        u, ux, _ = spec.field._u_ux_v_here()
        x = spec.field.x
        a11 = -1j * (4.0 * pts ** 2 + x + 2.0 * u * u)
        a12 = 4j * pts * u - 2.0 * ux
        a21 = -4j * pts * u - 2.0 * ux
        d1 = a11 * a + a12 * b
        d2 = a21 * a - a11 * b
        diag = (d2 * a - d1 * b) / _TWO_PI
        worst = float(np.max(np.abs(diag.imag)))
        if worst > _IMAG_TOL:
            raise KernelIntegrityError(
                f"kernel diagonal has imaginary part {worst:.3e} (limit {_IMAG_TOL})"
            )
        np.fill_diagonal(out, diag.real)
        stray = near & ~np.eye(n, dtype=bool)
        for i, j in zip(*np.nonzero(stray)):
            out[i, j] = _pii_diag(spec, float(mid[i, j]))
        return out

    t = _trig_t(spec)
    x = spec.x
    g = (4.0 / 3.0) * t * ((pts ** 2)[:, None] + (pts ** 2)[None, :] + pts[:, None] * pts[None, :]) + x
    ad = np.abs(d)
    safe = np.where(near, 1.0, ad)
    out = np.where(near, (4.0 * t * mid * mid + x) / math.pi,
                   np.sin(safe * g) / (math.pi * safe))
    return out
