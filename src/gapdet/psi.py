"""First column of the 2x2 linear system built on the Hastings-McLeod
solution, at real spectral parameter lambda.

Two transport routes are implemented.

The production route marches in x: the column is seeded far to the right
(at x = 12.5) with its closed-form large-x behavior
psi11 ~ e^{-i theta}, psi21 ~ -i e^{+i theta}, theta = (4/3) lambda^3 + x
lambda, where the seeding error is of order x^{-1/4} exp(-(2/3) x^{3/2}),
about 1e-14 at 12.5, and then carried down to the target x along
d psi/dx = U(lambda, x) psi, U = [[-i lambda, i u], [-i u, i lambda]].

The march integrates the column in the interaction picture,
phi = e^{i lambda x sigma3} psi, which takes the free rotation
e^{-+i lambda x} out in closed form:

    d phi/dx = u(x) [[0, i e^{2 i lambda x}], [-i e^{-2 i lambda x}, 0]] phi.

The seed phi = (e^{-i (4/3) lambda^3}, -i e^{+i (4/3) lambda^3}) does not
depend on x, and the right-hand side is proportional to u, so where u is
negligible (u < 1e-5 for x > 6) the state is constant.  The march is a
sixth-order Magnus integrator with three Gauss points per step (Blanes,
Casas and Ros) on a grid fixed per field: the step grows as u^(-1/7), up
to a cap, so at x = 0 about 15% of the 255 steps lie above x = 6.  Every
step's matrix exp(Omega) is formed in closed form for all lambdas at
once, and the matrices are multiplied in a tree.  Omega lies in su(1,1),
so each transfer matrix is [[p, q], [conj q, conj p]] with unit
determinant |p|^2 - |q|^2, and the march carries only (p, q).  The
column it gives is psi11 alone: for real lambda the Lax pair makes
psi21 = -i conj(psi11), and ``psi_columns`` forms psi21 that way, so the
pairing, and with it a real kernel, holds by construction.
The march is not neutrally stable.  Where u^2 > lambda^2, U has the real
eigenvalues +-sqrt(u^2 - lambda^2), so the transfer matrix grows as the
march goes left, and so does the rounding of every step it carries.  Each
step keeps the determinant 1, but the product loses it in proportion:
over 61 equally spaced lambda in [0, 3], max |psi_det - 1| is 2.8e-14 at
x = -3, 2.3e-13 at -4, 7.3e-12 at -5, 1.2e-10 at -6 and 3.7e-9 at -7
(below 1e-14 for x >= -2).  At the default tol the columns agree with
an eighth-order DOP853 march to a few 1e-13 for x >= -1 and |lambda| <=
2.4, and the march's own error falls in proportion to tol.

The lambda-ray route integrates the phase-extracted column phi = psi
e^{i theta} in the spectral variable from lambda0 = iR with the first-order
far-field seed phi = (1 - iv/(2 lambda0), u/(2 lambda0)), each leg of the
path by fixed-step sixth-order Magnus with the free phase exact in every
step, so nothing can fail; on x in {-1, 0, 1} and lambda in [-2, 3] it is
within 1.3e-12 of DOP853 at rtol = atol = 3e-14.  Its seed carries a
multiplicative O(R^-2) bias (the second-order moment of the far-field
expansion is not available in closed form from the inputs we keep), which
is harmless for cross-checks and large x but too coarse for determinants
whose top eigenvalue sits within 1e-8 of 1.  It is retained as
psi_column_ray for path-independence and convergence tests; psi_column is
the x-march.  Both return psi itself: the ray route multiplies its phi by
e^{-i theta} once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .painleve2 import HastingsMcLeodSolution, v_at
from .specfun import airy_ai

__all__ = [
    "PsiField",
    "psi_column",
    "psi_columns",
    "psi_column_derivative",
    "psi_column_ray",
    "psi_det",
]


# No field lies left of here, on any Hastings-McLeod window: |p| reaches 2e6
# at x = -10 and 2e8 at x = -12 (lambda = 0), so psi_det, which should be 1,
# reads 1 + 9.8e-4 at x = -10 and 0 at x = -12.
_X_MIN = -10.0
# Every march starts here, from the closed-form far-field seed (module docstring).
_X_START = 12.5
# The tightest march tolerance a field accepts (PsiField's docstring).
_TOL_MIN = 1e-15
# The largest seed radius of the ray route, whose step count grows as R^2.
_R_MAX = 64.0


@dataclass(eq=False)
class PsiField:
    """Evaluation context: the parameter x, the potential, and a column cache.

    ``hm`` is the Hastings-McLeod solution that gives the potential u.  The
    cache maps exact binary64 lambdas to psi11; it starts empty and is not a
    constructor argument.  ``tol`` is the column accuracy the march aims at:
    it sets the step of the Magnus grid, which scales as tol^(1/6).  It must
    be at least 1e-15: below that a tenfold step moves psi11 at x = -4 by
    3e-14 to 4e-14, its rounding wander, while the grid keeps growing as
    tol^(-1/6) (255 steps at x = 0 at the default, about 1e7 at 1e-40).  The grid
    depends on the field alone and the march is elementwise in lambda, so a
    cached column does not depend, beyond about an ulp, on the batch that
    marched it.  A fresh field given the same requests reproduces every
    value bit for bit, which is why the CLI gives each row its own.  The
    cache lives for one ladder: a PII ladder empties it before its first
    march, since its keys (s * node) are not asked for at any other s.  x
    must lie in the solved window and be at least -10, even on a wider
    window: further left the march loses psi_det = 1 at order 1.
    """

    x: float
    hm: HastingsMcLeodSolution
    tol: float = 1e-12
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not (_TOL_MIN <= self.tol < math.inf):
            raise ValueError(f"tol = {self.tol} must be finite and at least {_TOL_MIN}")
        if not self.hm.x_left <= self.x <= self.hm.x_right:
            raise ValueError(
                f"x = {self.x} outside the solved window "
                f"[{self.hm.x_left}, {self.hm.x_right}]"
            )
        if not self.x >= _X_MIN:
            raise ValueError(
                f"x = {self.x} below {_X_MIN}, left of which the march is not accurate"
            )

    def _u(self, xs: np.ndarray) -> np.ndarray:
        """u at many abscissae: the Hermite interpolant in the solved window,
        Ai beyond it, so the window's end cubic is never extrapolated."""
        far = xs > self.hm.x_right
        u = np.empty_like(xs)
        u[~far] = self.hm._u_ux(xs[~far])[0]
        if far.any():
            u[far] = airy_ai(np.minimum(xs[far], 40.0))
        return u

    def _u_ux_v_here(self):
        return self.hm.u_at(self.x), self.hm.u_x_at(self.x), v_at(self.hm, self.x)


# ---------------------------------------------------------------------------
# x-march transport: sixth-order Magnus on a fixed, potential-graded grid
# ---------------------------------------------------------------------------

# Gauss-Legendre abscissae of one step, as fractions of it
_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_H_BASE = 0.014     # the step where u = 1, at tol = 1e-12; it scales as tol^(1/6)
_H_MAX = 0.25       # cap on any step; at the default tol it binds only where u < 2e-9
_U_SAMPLES = 16     # samples of u per unit length that grade the grid
_CHUNK = 32         # steps whose matrices are formed and multiplied at once
# 1/(2k)! and 1/(2k+1)!, k = 7..0, for cosh(r) and sinh(r)/r in powers of r^2
_COSH = [1.0 / math.factorial(2 * k) for k in range(7, -1, -1)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(7, -1, -1)]


def _grid(field_: PsiField) -> np.ndarray:
    """Step ends from _X_START to field_.x, steps ~ u^(-1/7), capped.

    The local error of a Magnus step grows as u h^7, so a step of
    base * u^(-1/7) spends the same error wherever it sits, and
    base ~ tol^(1/6) keeps the accumulated error in proportion to tol.
    The steps are spread by equal increments of the integrated step
    density, sampled on a uniform grid; one ``_u`` call serves them all.
    """
    span = field_.x - _X_START
    if span == 0.0:
        return np.array([_X_START])
    base = min(_H_BASE * (field_.tol / 1e-12) ** (1.0 / 6.0), _H_MAX)
    xs = np.linspace(_X_START, field_.x, math.ceil(abs(span) * _U_SAMPLES) + 1)
    density = np.maximum(np.abs(field_._u(xs)) ** (1.0 / 7.0) / base, 1.0 / _H_MAX)
    steps = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]))])
    steps *= abs(span) / (len(xs) - 1)
    ends = np.interp(np.linspace(0.0, steps[-1], math.ceil(steps[-1]) + 1), steps, xs)
    ends[-1] = field_.x
    return ends


def _mul(p1, q1, p2, q2):
    """(p, q) of [[p1, q1], [conj q1, conj p1]] [[p2, q2], [conj q2, conj p2]]."""
    return p1 * p2 + q1 * np.conj(q2), p1 * q2 + q1 * np.conj(p2)


def _step_matrices(h: np.ndarray, w1, w2, w3):
    """(p, q) of exp(Omega) for each step, Omega its sixth-order Magnus sum.

    w1, w2, w3 are the upper coefficient at the three Gauss points of each
    step, broadcastable to (steps, lambdas).  Each Omega = [[i a, b],
    [conj b, -i a]] is the Blanes-Casas-Ros commutator form, computed on
    (a, b), in which [M1, M2] = (2 Im(b1 conj b2), 2i (a1 b2 - a2 b1)).
    Omega^2 = delta I with delta = |b|^2 - a^2, so exp(Omega) =
    cosh(r) + sinh(r)/r Omega, r^2 = delta, which is [[p, q], [conj q,
    conj p]] with |p|^2 - |q|^2 = 1.  A common phase of w1, w2, w3 leaves
    a, delta and p alone and multiplies b and q.
    """
    h = h[:, None]
    b1 = h * w2
    b2 = (math.sqrt(15.0) / 3.0) * h * (w3 - w1)
    b3 = (10.0 / 3.0) * h * (w3 - 2.0 * w2 + w1)
    a_c1 = 2.0 * (b1 * np.conj(b2)).imag                     # C1 = [B1, B2]
    a_c2 = -(b1 * np.conj(b3)).imag / 15.0                   # C2 = -[B1, 2 B3 + C1] / 60
    b_c2 = (1j / 30.0) * a_c1 * b1
    b_p = -20.0 * b1 - b3                                    # P = -20 B1 - B3 + C1
    b_q = b2 + b_c2                                          # Q = B2 + C2
    a = 2.0 * (b_p * np.conj(b_q)).imag / 240.0              # Omega = B1 + B3/12 + [P, Q]/240
    b = b1 + b3 / 12.0 + (2j / 240.0) * (a_c1 * b_q - a_c2 * b_p)
    delta = b.real ** 2 + b.imag ** 2 - a * a
    cosh = sinhc = 0.0
    for c, s in zip(_COSH, _SINHC):
        cosh = cosh * delta + c
        sinhc = sinhc * delta + s
    return cosh + 1j * (a * sinhc), b * sinhc


def _march(field_: PsiField, lams: np.ndarray) -> tuple:
    """Carry the far-field seed down to field_.x on the grid of ``_grid``.

    The state is the rotation-free column phi = e^{i lambda x sigma3} psi of
    the module docstring, with phi' = [[0, w], [conj(w), 0]] phi,
    w = i u e^{2 i lambda x}.  Each step's transfer matrix is formed for all
    lambdas at once, _CHUNK steps at a time, the steps of a chunk are
    multiplied pairwise in a tree, and the chunk products are multiplied in
    march order.  Every operation is elementwise in lambda.  A transfer
    matrix keeps the form [[p, q], [conj q, conj p]], so only (p, q) is
    carried.

    Returns the arrays (p, q) of the transfer matrix from _X_START to
    field_.x, one entry per lambda.  The seed does not depend on _X_START:
    phi1 = p conj(c) - i q c with c = e^{i (4/3) lambda^3}, and
    psi11 = e^{-i lambda x} phi1 (``psi_columns``).
    """
    lams = np.asarray(lams, dtype=float)
    ends = _grid(field_)
    p = np.ones(len(lams), dtype=complex)
    q = np.zeros(len(lams), dtype=complex)
    for k in range(0, len(ends) - 1, _CHUNK):
        x0 = ends[k:k + _CHUNK + 1]
        h = np.diff(x0)
        xg = x0[:-1, None] + h[:, None] * _GAUSS3
        u = field_._u(xg.ravel()).reshape(xg.shape)
        # w over its midpoint phase i e^{2 i lambda x}: e^{-+i (sqrt 15 / 5) lambda h}
        off = np.exp(1j * ((math.sqrt(15.0) / 5.0) * h[:, None] * lams))
        sp, sq = _step_matrices(h, u[:, 0, None] * np.conj(off), u[:, 1, None], u[:, 2, None] * off)
        sq = sq * (1j * np.exp(1j * (2.0 * xg[:, 1, None] * lams)))
        while len(sp) > 1:                  # later steps multiply from the left
            even = len(sp) // 2 * 2
            tp, tq = _mul(sp[1:even:2], sq[1:even:2], sp[0:even:2], sq[0:even:2])
            sp, sq = np.concatenate([tp, sp[even:]]), np.concatenate([tq, sq[even:]])
        p, q = _mul(sp[0], sq[0], p, q)
    return p, q


def _check_lams(lams) -> np.ndarray:
    """lams as a float array; ValueError unless every |lambda| <= 4 (NaN fails)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.abs(lams) <= 4.0):
        raise ValueError(f"lambda = {lams[~(np.abs(lams) <= 4.0)][0]} outside [-4, 4]")
    return lams


def psi_columns(field_: PsiField, lams) -> np.ndarray:
    """Columns at many lambdas, marched together and cached.

    Returns a complex array of shape (m, 2) whose rows are [psi11, psi21];
    an empty request gives shape (0, 2).  ``field_.cache`` maps each exact
    lambda to psi11 alone; psi21 = -i conj(psi11), the Lax pair's pairing
    for real lambda, is formed from it on every read.

    The field's one Magnus grid serves every batch and the work of each
    step is vectorised over lambdas, so much of a march's cost is per
    batch: at x = 0 one lambda takes about 2.5 ms and 96 take about 6 ms.
    So ``log_det_converged`` marches
    the nodes of a PII ladder's first two rungs in one call up front, and
    a higher rung's ``kernel_matrix`` marches its nodes here, in one batch,
    when the ladder reaches it.  A repeated lambda is marched once.
    """
    lams = [float(v) for v in _check_lams(lams)]
    missing = list(dict.fromkeys(lam for lam in lams if lam not in field_.cache))
    if missing:
        grid = np.array(missing)
        p, q = _march(field_, grid)
        cubic = np.exp(1j * ((4.0 / 3.0) * grid ** 3))
        psi11 = (p * np.conj(cubic) - 1j * (q * cubic)) * np.exp(-1j * (field_.x * grid))
        field_.cache.update(zip(missing, psi11.tolist()))
    psi11 = np.array([field_.cache[lam] for lam in lams], dtype=complex)
    return np.stack([psi11, -1j * np.conj(psi11)], axis=1)


def psi_column(field_: PsiField, lam: float) -> np.ndarray:
    """[psi11, psi21] at one lambda (|lambda| <= 4), from the cache when present."""
    return psi_columns(field_, [lam])[0]


def _lambda_matrix(field_: PsiField, lam):
    """(a11, a12, a21) of the traceless A of d psi / d lambda = A psi, elementwise."""
    u, ux, _ = field_._u_ux_v_here()
    a11 = -1j * (4.0 * lam ** 2 + field_.x + 2.0 * u * u)
    a12 = 4j * lam * u - 2.0 * ux
    a21 = -4j * lam * u - 2.0 * ux
    return a11, a12, a21


def _lambda_derivative(field_: PsiField, lam, p1, p2):
    """d psi / d lambda of the column (p1, p2) at lam, from the lambda-equation.

    Works elementwise on arrays; the caller supplies the column values.
    """
    a11, a12, a21 = _lambda_matrix(field_, lam)
    return a11 * p1 + a12 * p2, a21 * p1 - a11 * p2


def psi_column_derivative(field_: PsiField, lam):
    """d psi / d lambda of the first column, read off the spectral equation.

    ``lam`` is one lambda or a 1-D array of them; the pair (d psi11,
    d psi21) comes back as complex scalars or as arrays of that length.
    The columns come through ``psi_columns``, so this costs one cache lookup
    after the first call.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    cols = psi_columns(field_, lams)
    d1, d2 = _lambda_derivative(field_, lams, cols[:, 0], cols[:, 1])
    if np.ndim(lam) == 0:
        return complex(d1[0]), complex(d2[0])
    return d1, d2


def psi_det(field_: PsiField, lam: float) -> float:
    """|p|^2 - |q|^2, the determinant of the transfer matrix [[p, q],
    [conj q, conj p]] to field_.x: every step's is 1, so any deviation from
    1 measures transport error."""
    _check_lams(lam)
    p, q = _march(field_, np.array([lam]))
    return float(p[0].real ** 2 + p[0].imag ** 2 - (q[0].real ** 2 + q[0].imag ** 2))


# ---------------------------------------------------------------------------
# lambda-ray transport (cross-check route)
# ---------------------------------------------------------------------------

def _ray_leg(field_: PsiField, a: complex, b: complex, p1: complex, p2: complex) -> tuple:
    """Carry phi = psi e^{i theta} along the segment a -> b of the lambda-plane.

    Sixth-order Magnus in the Blanes-Casas-Ros form of ``_step_matrices``, on
    the traceless A of the lambda-equation, steps set by the leg length and
    its largest phase rate.  A step is exp(Omega) = cosh(r) I + sinh(r)/r
    Omega, r^2 = -det Omega, times the exact e^{i h (4 m^2 + h^2/3 + x)} =
    e^{i (theta(mu1) - theta(mu0))}, m its midpoint: so every step matrix is
    bounded, and the decay along iR -> 0 is exact.
    """
    def comm(m1, m2):                       # [M1, M2] of traceless (a11, a12, a21) rows
        (a1, b1, c1), (a2, b2, c2) = m1, m2
        return np.array([b1 * c2 - b2 * c1, 2.0 * (a1 * b2 - a2 * b1), 2.0 * (a2 * c1 - a1 * c2)])
    rate = math.sqrt(8.0 * max(abs(a), abs(b)) ** 2 + abs(field_.x) + 1.0)
    n = max(math.ceil(40.0 * abs(b - a) * rate), 1)
    h = (b - a) / n
    for k in range(0, n, 4096):             # blocks of steps bound the memory at any R
        mu = a + h * (np.arange(k, min(k + 4096, n))[:, None] + _GAUSS3)
        w1, b1, w3 = h * np.array(_lambda_matrix(field_, mu)).transpose(2, 0, 1)  # h A at nodes
        b2 = (math.sqrt(15.0) / 3.0) * (w3 - w1)
        b3 = (10.0 / 3.0) * (w3 - 2.0 * b1 + w1)
        c1 = comm(b1, b2)
        c2 = -comm(b1, 2.0 * b3 + c1) / 60.0
        om11, om12, om21 = b1 + b3 / 12.0 + comm(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0
        r = np.sqrt(om11 * om11 + om12 * om21)
        scale = np.exp(1j * h * (4.0 * mu[:, 1] ** 2 + h * h / 3.0 + field_.x))
        cosh, sinhc = np.cosh(r) * scale, np.sinc(1j * r / np.pi) * scale   # sinh(r)/r, 1 at r = 0
        for m11, m12, m21, m22 in zip((cosh + sinhc * om11).tolist(), (sinhc * om12).tolist(),
                                      (sinhc * om21).tolist(), (cosh - sinhc * om11).tolist()):
            p1, p2 = m11 * p1 + m12 * p2, m21 * p1 + m22 * p2
    return p1, p2


def psi_column_ray(field_: PsiField, lam: float, R: float = 8.0,
                   path: str = "dogleg") -> np.ndarray:
    """[psi11, psi21] integrated along rays in the spectral plane.

    Starts at lambda0 = iR (0 < R <= 64) from the first-order far-field
    seed and follows either the dog-leg iR -> 0 -> lam (default) or the
    straight segment iR -> lam, each leg by ``_ray_leg``.  The result is
    entire in lambda, so the two paths must agree.  Seed bias is O(R^-2):
    good for property tests, not for production determinants.  The leg from
    iR takes about 113 R^2 steps, so R is capped where the bias has fallen
    to a few 1e-6 (3.7e-6 against the march at lam = 0.5, x = 0, R = 64)
    and a call still takes well under a second.  The direct
    path is refused for |lam| > 1.5: at R = 8 and x in {-1, 0, 1} its gap to
    the dog-leg, an error the path amplifies, is <= 1e-10 for |lam| <= 1.5,
    1e-7 to 2e-5 at |lam| = 2 and 1e10 to 5e12 at |lam| = 3; at lam = 1.5 it
    grows with R and x: 3e-10 to 1.3e-9 at (x, R) = (1, 16), 1.2e-8 at (8, 8).
    """
    _check_lams(lam)
    if path not in ("dogleg", "direct"):
        raise ValueError(f"unknown path {path!r}")
    if path == "direct" and not abs(lam) <= 1.5:
        raise ValueError(f"the direct path is not accurate at |lambda| = {abs(lam)} > 1.5")
    if not 0.0 < R <= _R_MAX:
        raise ValueError(f"seed radius R = {R} must lie in (0, {_R_MAX}]")
    u, _, v = field_._u_ux_v_here()
    lam0 = 1j * R
    phi = (1.0 - 1j * v / (2.0 * lam0), u / (2.0 * lam0))
    points = [lam0, 0j, complex(lam)] if path == "dogleg" else [lam0, complex(lam)]
    for a, b in zip(points, points[1:]):
        phi = _ray_leg(field_, a, b, *phi)
    return np.array(phi) * np.exp(-1j * ((4.0 / 3.0) * lam ** 3 + field_.x * lam))
