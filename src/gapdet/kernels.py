"""The three determinantal kernels behind the gap probabilities, on one
interface: the sine kernel, its cubic-phase generalization, and the kernel
built from the Hastings-McLeod column.

Every value is computed by ``kernel_matrix``, on a whole set of points at
once; a single entry is read off it.  ``kernel_dx_factors`` is the
rank-two factor G of dK/dx = G G^T on the same points, for the x-slope
of the determinant.  Evaluation conventions that matter numerically:

* The sine kernel is not a separate formula: ``Sine(x)`` is the
  ``CubicSine`` with t = 0, so the two are one kernel by construction.
  The phase is factored as (lambda - mu) * ((4/3) t (lambda^2 + mu^2 +
  lambda mu) + x), which kills the cancellation of the naive lambda^3 -
  mu^3 form.  Writing the ratio as sin(|d| g)/(pi |d|) with the
  symmetric g makes K(lambda, mu) == K(mu, lambda) exact in floating
  point.

* Within |lambda - mu| < 1e-6 every variant switches to the diagonal
  formula at the midpoint: the direct quotients lose about six digits
  there while the kernels vary on scale 1, so the midpoint value is
  accurate to ~1e-12, far inside the 1e-9 continuity budget.  The
  column-based kernel reads a diagonal entry off its node's own column
  and marches the midpoints of the other such pairs in one batch.

* The column-based kernel is real by construction: for real lambda the
  Lax pair gives psi21 = -i conj(psi11), so K is computed in real
  arithmetic from Re psi11 and Im psi11, with exactly antisymmetric
  numerator and denominator arrays, and the matrix is exactly symmetric.
  A value that is not finite (a NaN column, say) raises
  KernelIntegrityError rather than reaching the elimination.

* Every kernel is even, K(-lambda, -mu) = K(lambda, mu), and on mirrored
  points the matrix is exactly centrosymmetric, which the determinant's
  even/odd fold needs.  The trig phase is built from lambda^2, mu^2,
  lambda mu and |lambda - mu|, which a sign flip of both leaves bit for
  bit; the column-based kernel reads psi11(-lambda) as the exact
  conjugate of the cached psi11(|lambda|), which flips the sign of its
  numerator and of lambda - mu together.
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
    "kernel_dx_factors",
    "kernel_matrix",
]

_TAYLOR_RADIUS = 1e-6


class KernelIntegrityError(RuntimeError):
    """The column-based kernel has a value that is not finite."""


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


class Sine(CubicSine):
    """sin(x (lambda - mu)) / (pi (lambda - mu)): the t = 0 CubicSine."""

    def __init__(self, x: float):
        super().__init__(0.0, x)


@dataclass(frozen=True)
class PII:
    """Im(conj psi11(lambda) psi11(mu)) / (pi (lambda - mu))."""

    x: float
    field: PsiField

    def __post_init__(self):
        if self.field.x != self.x:
            raise ValueError(
                f"field was built at x = {self.field.x}, spec says x = {self.x}"
            )


KernelSpec = Union[CubicSine, PII]


def _finite(vals: np.ndarray, where: str) -> np.ndarray:
    """Column-based kernel values, after the integrity check."""
    if not np.isfinite(vals).all():
        raise KernelIntegrityError(f"kernel {where} is not finite")
    return vals


def _columns_and_diagonal(field: PsiField, lams: np.ndarray):
    """psi11 at lams, and K(lambda, lambda) = -Im(conj psi11 psi11') / pi
    there, psi11' from the lambda-equation."""
    a = psi_columns(field, lams)[:, 0]
    da = _lambda_derivative(field, lams, a)
    return a, (a.imag * da.real - a.real * da.imag) / math.pi


def kernel_matrix(spec: KernelSpec, points) -> np.ndarray:
    """K sampled on points x points, vectorized, exactly symmetric.

    The column-based variant reads its columns through ``psi_columns``,
    which marches the uncached |lambda| in one batch; inside a ladder the first
    two rungs' nodes are already cached, and a higher rung's are marched
    here.  Every pair closer than the switch radius takes the diagonal
    value at its midpoint: a point's own value on the diagonal, and one
    second batch for the off-diagonal ones.
    """
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PII):
        a, diag = _columns_and_diagonal(spec.field, pts)
        d = pts[:, None] - pts[None, :]
        near = np.abs(d) < _TAYLOR_RADIUS
        num = a.real[:, None] * a.imag[None, :]
        num = num - num.T
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / (math.pi * d)
        _finite(k[~near], "matrix")
        i, j = np.nonzero(near)
        vals, stray = diag[i], i != j
        if stray.any():
            vals[stray] = _columns_and_diagonal(spec.field, 0.5 * (pts[i[stray]] + pts[j[stray]]))[1]
        k[near] = _finite(vals, "diagonal")
        return k

    # The phase |lambda - mu| g of the module docstring, built in place: at
    # n = 256 each n x n temporary is 0.5 MB, and the assembly's peak is
    # what a ladder's top rung adds to a process.  Pairs inside the switch
    # radius get |lambda - mu| = 1 and are overwritten.
    t, x = _trig_params(spec, pts)
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
    np.sin(g, out=g)
    safe *= math.pi
    g /= safe
    i, j = np.nonzero(near)
    mid = 0.5 * (pts[i] + pts[j])
    g[near] = (4.0 * t * mid * mid + x) / math.pi
    return g


def kernel_dx_factors(spec: KernelSpec, points) -> np.ndarray:
    """The (m, 2) factor G of dK/dx = G G^T on m points, vectorized.

    For the trig kernels the phase is linear in x with slope lambda - mu,
    so dK/dx = cos(Phi) / pi = cos(theta(lambda) - theta(mu)) / pi with
    theta = ((4/3) t lambda^2 + x) lambda, and G = [cos theta, sin theta]
    / sqrt(pi).  For the column-based kernel the x-equation of the Lax
    pair gives dK/dx = Re(conj psi11(lambda) psi11(mu)) / pi, and G =
    [Re psi11, Im psi11] / sqrt(pi); its columns are the ones
    ``kernel_matrix`` marched on the same points, read from the cache, and
    the values pass the same finiteness check.  Neither has a quotient or
    a diagonal special case.  theta is odd in lambda and psi11(-lambda) is
    the conjugate of psi11(lambda), so on mirrored points column 0 is even
    and column 1 odd, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PII):
        a = psi_columns(spec.field, pts)[:, 0]
        return _finite(np.stack([a.real, a.imag], axis=1) / math.sqrt(math.pi), "x-derivative")
    t, x = _trig_params(spec, pts)
    theta = ((4.0 / 3.0) * t * pts ** 2 + x) * pts
    return np.stack([np.cos(theta), np.sin(theta)], axis=1) / math.sqrt(math.pi)


def _trig_params(spec: CubicSine, pts: np.ndarray) -> tuple:
    """(t, x) of a trig kernel; ValueError unless every point is finite."""
    if not np.isfinite(pts).all():
        raise ValueError(f"point {pts[~np.isfinite(pts)][0]} must be finite")
    return spec.t, spec.x
