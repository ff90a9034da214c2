"""Hastings-McLeod boundary-value solver for u'' = x u + 2 u^3.

The solution is pinned by u ~ Ai(x) on the right and by its asymptotic
series on the left.  Newton's method on the Numerov discretisation solves the
two-point problem to fourth order in h: with f = x u + 2 u^3 the interior
equations are (u[i-1] - 2 u[i] + u[i+1]) / h^2 = (f[i-1] + 10 f[i] +
f[i+1]) / 12, and the Jacobian stays tridiagonal.  At the default h, u(0)
agrees with the published 0.3670615515480784 to 1e-14.  u_x comes from
fourth-order stencils on the converged grid.

Between grid nodes u and u_x are cubic Hermite interpolants: u from the
node values (u, u_x), and u_x from (u_x, u_xx), where u_xx = x u + 2 u^3
is read off the equation itself.  Both are fourth order in h, and each
node returns its stored values.
v = (u_x)^2 - x u^2 - u^4 is formed pointwise from the two.  The auxiliary
quantity v shows up in the logarithmic-derivative expansions.

Accuracy notes.  Against the x_left = -40 solve, the default window's u
is off by 7.8e-11 / 1.0e-12 at x = -10 / -9, about the series' first
omitted term (6.9e-11 at -10), so every quantity read off the solution
takes the whole window as its domain.  The
discrete residual of a converged grid cannot drop below about
2 eps |u| / h^2 (one half-ulp of a stored value already moves it that
much), ~4e-10 at the default h = 0.002.  Newton therefore stops after the
step taken at a residual below max(1e-8, 8 eps max|u| / h^2); that step's
~1e-13 correction to u is below what the residual can show.  The first
term sets the stop for h above about 6e-4 (9e-4 at x_left = -40); the
second, four times the floor, lets a smaller h stop above its own floor.
From the default start, 100 windows spread over the accepted box all
converge in 4 or 5 full steps, each lowering the residual.

Each Newton step solves its tridiagonal system by one elimination sweep
and back substitution on Python floats (``_solve_tridiagonal``), in the
operation order of LAPACK's dgtsv, so the step is bit-identical to
``scipy.linalg.solve_banded``.  No pivoting is needed: f' = x + 6 u^2 > 0
makes the Jacobian diagonally dominant.  Both passes run over slices of
_SWEEP = 1,024 rows, each converted to Python floats and written back into
two float arrays, so the boxed floats held at once do not grow with the
grid; each value carries across a slice boundary unrounded, so the
operations and their order stay dgtsv's.  With the Airy rule in blocks
too (``specfun``), ``solve_hm()``'s tracemalloc peak is about 0.9 MB, and
3.7 MB on (-8, 40, 1e-3).  The Airy data come from
``specfun``, which needs numpy alone, so solving and evaluating load no
part of scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mpnum import gauss_legendre
from .specfun import airy_ai, airy_ai_prime

__all__ = [
    "HastingsMcLeodSolution",
    "NewtonDivergenceError",
    "WrongBranchError",
    "solve_hm",
    "tw_integral",
    "v_at",
]


class NewtonDivergenceError(RuntimeError):
    """Newton did not reach its stop residual within the iteration cap."""

    def __init__(self, iterations, residual):
        super().__init__(
            f"Newton did not converge after {iterations} iterations, "
            f"last residual {residual:.3e}"
        )


class WrongBranchError(RuntimeError):
    """Newton converged to a profile that is not positive everywhere."""


@dataclass(frozen=True)
class HastingsMcLeodSolution:
    """u, u_x and v on a uniform grid x.

    Immutable.  Between nodes, u and u_x are cubic Hermite interpolants
    whose node slopes are u_x and u_xx = x u + 2 u^3 (module docstring); the
    constructor checks that the grid increases and the arrays share it.
    The window [x_left, x_right] is read off the grid, so it cannot
    disagree with it.
    """

    x: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        n = len(self.x)
        if n < 2 or not len(self.u) == len(self.u_x) == len(self.v) == n:
            raise ValueError("x, u, u_x and v must share one grid of at least two nodes")
        if not np.all(np.diff(self.x) > 0.0):
            raise ValueError("the grid x must be strictly increasing")

    @property
    def x_left(self) -> float:
        return float(self.x[0])

    @property
    def x_right(self) -> float:
        return float(self.x[-1])

    def _check(self, x: float):
        if not self.x_left <= x <= self.x_right:
            raise ValueError(
                f"x = {x} outside the solved window [{self.x_left}, {self.x_right}]"
            )

    def _u_ux(self, xs):
        """(u, u_x) at many abscissae by cubic Hermite interpolation.

        u interpolates (u, u_x) and u_x interpolates (u_x, x u + 2 u^3) at
        the ends of the grid interval holding each point.  The weights use
        the point's distances to both ends, so a node returns its stored
        values exactly.  Points outside the window extrapolate the end
        interval's cubic; callers keep to the window.
        """
        xs = np.asarray(xs, dtype=float)
        x, u, ux = self.x, self.u, self.u_x
        i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, len(x) - 2)
        x0, x1 = x[i], x[i + 1]
        u0, u1, m0, m1 = u[i], u[i + 1], ux[i], ux[i + 1]
        d = x1 - x0
        s = (xs - x0) / d
        t = (x1 - xs) / d
        w0 = t * t * (1.0 + 2.0 * s)
        w1 = s * s * (1.0 + 2.0 * t)
        d0 = d * s * t * t
        d1 = -d * s * s * t
        a0 = x0 * u0 + 2.0 * u0 ** 3
        a1 = x1 * u1 + 2.0 * u1 ** 3
        return (w0 * u0 + w1 * u1 + d0 * m0 + d1 * m1,
                w0 * m0 + w1 * m1 + d0 * a0 + d1 * a1)

    def u_at(self, x: float) -> float:
        self._check(x)
        return float(self._u_ux(x)[0])

    def u_x_at(self, x: float) -> float:
        self._check(x)
        return float(self._u_ux(x)[1])


# c_k of u = sqrt(-x/2) (1 + sum_k c_k x^(-3k)) as x -> -inf (Fokas, Its,
# Kapaev and Novokshenov, Painleve Transcendents, AMS 2006)
_LEFT_SERIES = (Fraction(1, 8), Fraction(-73, 128), Fraction(10657, 1024), Fraction(-13912277, 32768))


def _initial_guess(x: np.ndarray) -> np.ndarray:
    # smooth crossfade between the two boundary asymptotes; left of 0.5, the
    # end of Ai's domain, the Airy factor is held at Ai(0.5), and the
    # logistic window gives it at most a quarter of the weight there
    w = 1.0 / (1.0 + np.exp(2.0 * x))
    left = np.sqrt(np.maximum(-x, 0.0) / 2.0)
    right = np.full_like(x, airy_ai(0.5))
    tail = x > 0.5
    right[tail] = airy_ai(np.minimum(x[tail], 30.0))
    return w * left + (1.0 - w) * right


# Rows per slice of the tridiagonal sweep: its Python-float lists then hold
# at most _SWEEP rows, whatever the number of grid points.
_SWEEP = 1024


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Solve the tridiagonal system with the given three diagonals.

    Gaussian elimination without pivoting and back substitution, on Python
    floats, with LAPACK dgtsv's operations in its order when no row is
    interchanged, which it does not do for a diagonally dominant matrix.
    Both sweeps run over slices of _SWEEP rows, each slice's eliminated
    diagonal and right-hand side written back into two float arrays.
    """
    n = len(diag)
    b, d = np.array(diag, dtype=float), np.array(rhs, dtype=float)
    bi, di = float(b[0]), float(d[0])
    for lo in range(0, n - 1, _SWEEP):
        hi = min(lo + _SWEEP, n - 1)
        a, c = sub[lo:hi].tolist(), sup[lo:hi].tolist()
        bs, ds = b[lo + 1:hi + 1].tolist(), d[lo + 1:hi + 1].tolist()
        for k in range(hi - lo):
            fact = a[k] / bi
            bs[k] = bi = bs[k] - fact * c[k]
            ds[k] = di = ds[k] - fact * di
        b[lo + 1:hi + 1], d[lo + 1:hi + 1] = bs, ds
    d[-1] = di = di / bi
    for hi in range(n - 1, 0, -_SWEEP):
        lo = max(hi - _SWEEP, 0)
        c, bs, ds = sup[lo:hi].tolist(), b[lo:hi].tolist(), d[lo:hi].tolist()
        for k in range(hi - lo - 1, -1, -1):
            ds[k] = di = (ds[k] - c[k] * di) / bs[k]
        d[lo:hi] = ds
    return d


def _deriv4(u: np.ndarray, h: np.float64) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid."""
    n = len(u)
    d = np.empty_like(u)
    d[2:-2] = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    d[0] = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
    d[1] = (-3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2] - 6.0 * u[3] + u[4]) / (12.0 * h)
    d[n - 2] = (3.0 * u[n - 1] + 10.0 * u[n - 2] - 18.0 * u[n - 3] + 6.0 * u[n - 4] - u[n - 5]) / (12.0 * h)
    d[n - 1] = (25.0 * u[n - 1] - 48.0 * u[n - 2] + 36.0 * u[n - 3] - 16.0 * u[n - 4] + 3.0 * u[n - 5]) / (12.0 * h)
    return d


def _interior_residual(u, x, h):
    # Numerov: second difference against the 1-10-1 average of f = x u + 2 u^3
    f = x * u + 2.0 * u ** 3
    return (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) - (f[:-2] + 10.0 * f[1:-1] + f[2:]) / 12.0


def _newton_jacobian(u, x, h):
    """(sub, diag, super) diagonals of d(_interior_residual)/du, interior nodes."""
    fp = x + 6.0 * u ** 2
    return (1.0 / (h * h) - fp[1:-2] / 12.0,
            -2.0 / (h * h) - (10.0 / 12.0) * fp[1:-1],
            1.0 / (h * h) - fp[2:-1] / 12.0)


def solve_hm(x_left: float = -10.0, x_right: float = 8.0,
             h: float = 0.002) -> HastingsMcLeodSolution:
    """Solve the positive-branch boundary-value problem on [x_left, x_right].

    ``-40 <= x_left <= -8``, ``6 <= x_right <= 40`` and ``1e-4 <= h <=
    1/100`` are required; h is nudged so the window divides evenly, and
    the grid's last node is x_right itself.  Newton's last step is the one
    taken at a residual below max(1e-8, 8 eps max|u| / h^2), above the
    rounding floor of every accepted h.

    Raises NewtonDivergenceError when 80 steps do not reach the stop, and
    WrongBranchError when the converged profile has min u <= 0.
    """
    if not -40.0 <= x_left <= -8.0:
        raise ValueError(f"x_left = {x_left} must lie in [-40, -8]")
    if not 6.0 <= x_right <= 40.0:
        raise ValueError(f"x_right = {x_right} must lie in [6, 40]")
    if not 1e-4 <= h <= 0.01:
        raise ValueError(f"h = {h} must lie in [1e-4, 1/100]")

    n_steps = int(round((x_right - x_left) / h))
    h = (x_right - x_left) / n_steps
    x = x_left + h * np.arange(n_steps + 1)
    x[-1] = x_right                 # the product can miss the end by an ulp or two

    u = _initial_guess(x)
    y = Fraction(x_left) ** -3      # the series summed exactly, rounded once
    u[0] = np.sqrt(-x_left / 2.0) * float(1 + sum(c * y ** k for k, c in enumerate(_LEFT_SERIES, 1)))
    u[-1] = airy_ai(x_right)

    # max|u| of the monotone solution is its pinned left value
    stop = max(1e-8, 8.0 * np.finfo(float).eps * float(u[0]) / (h * h))
    for it in range(80):
        F = _interior_residual(u, x, h)
        rn = float(np.max(np.abs(F)))
        u[1:-1] += _solve_tridiagonal(*_newton_jacobian(u, x, h), -F)
        if rn <= stop:
            break  # this step was the closing one, see module docstring
    else:
        raise NewtonDivergenceError(it + 1, rn)

    if np.min(u) <= 0.0:
        raise WrongBranchError(
            f"converged to a non-positive branch, min u = {np.min(u):.3e}"
        )

    u_x = _deriv4(u, h)
    v = u_x * u_x - x * u * u - u ** 4
    return HastingsMcLeodSolution(x=x, u=u, u_x=u_x, v=v, residual=rn, iterations=it + 1)


def v_at(sol: HastingsMcLeodSolution, x: float) -> float:
    """v = (u_x)^2 - x u^2 - u^4 at x, from the interpolated u and u_x."""
    sol._check(x)
    u, ux = sol._u_ux(x)
    return float(ux * ux - x * u * u - u ** 4)


def _airy_tail_moment(big_x: float, x: float) -> float:
    """integral over [big_x, inf) of (y - x) Ai(y)^2 dy, in closed form.

    Both pieces integrate exactly against Ai'' = y Ai:
    int (y-X) Ai^2 = (2/3) X^2 Ai^2 - (2/3) X Ai'^2 - (1/3) Ai Ai' and
    int Ai^2 = Ai'^2 - X Ai^2, evaluated at X = big_x.
    """
    a = airy_ai(big_x)
    ap = airy_ai_prime(big_x)
    second = (2.0 / 3.0) * big_x ** 2 * a * a - (2.0 / 3.0) * big_x * ap * ap - (1.0 / 3.0) * a * ap
    zeroth = ap * ap - big_x * a * a
    return second + (big_x - x) * zeroth


def tw_integral(sol: HastingsMcLeodSolution, x: float) -> float:
    """integral over [x, inf) of (y - x) u(y)^2 dy.

    Composite Gauss quadrature over [x, x_right] on the interpolated u,
    every panel's nodes in one evaluation, plus the closed-form Airy tail.
    """
    sol._check(x)
    rule = gauss_legendre(24)
    nodes, weights = rule.nodes_f8, rule.weights_f8
    n_panels = max(1, int(np.ceil((sol.x_right - x) / 2.0)))
    edges = np.linspace(x, sol.x_right, n_panels + 1)
    mid, rad = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = mid[:, None] + rad[:, None] * nodes
    uy = sol._u_ux(y)[0]
    body = np.sum(rad * np.sum(weights * (y - x) * uy * uy, axis=1))
    return float(body + _airy_tail_moment(sol.x_right, x))
