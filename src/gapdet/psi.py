"""First column of the 2x2 linear system built on the Hastings-McLeod
solution, at real spectral parameter lambda.

The column is marched in x: it is seeded far to the right (at x = 12.5)
with its closed-form large-x behavior psi11 ~ e^{-i theta}, psi21 ~ -i
e^{+i theta}, theta = (4/3) lambda^3 + x lambda, where the seeding error
is of order x^{-1/4} exp(-(2/3) x^{3/2}), about 1e-14 at 12.5, and then
carried down to the target x along d psi/dx = U(lambda, x) psi,
U = [[-i lambda, i u], [-i u, i lambda]].

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
pairing, and with it a real kernel, holds by construction.  For real
lambda, U(-lambda) = sigma3 conj(U(lambda)) sigma3 and the seed maps the
same way, so psi11(-lambda) = conj psi11(lambda): only |lambda| is
marched, and the kernel is even.
The march is not neutrally stable.  Where u^2 > lambda^2, U has the real
eigenvalues +-sqrt(u^2 - lambda^2), so the transfer matrix grows as the
march goes left, and so does the rounding of every step it carries.  Each
step keeps the determinant 1, but the product loses it in proportion:
over 61 equally spaced lambda in [0, 3], max ||p|^2 - |q|^2 - 1| is
2.8e-14 at x = -3, 2.3e-13 at -4, 7.3e-12 at -5, 1.2e-10 at -6 and 3.7e-9
at -7 (below 1e-14 for x >= -2).  At the default tol the columns agree
with an eighth-order DOP853 march to a few 1e-13 for x >= -1 and |lambda|
<= 2.4, and the march's own error falls in proportion to tol.

``psi_columns`` is the one entry, for a batch of lambdas; one column is
row 0 of a one-lambda batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .painleve2 import HastingsMcLeodSolution
from .specfun import airy_ai

__all__ = ["PsiField", "psi_columns"]


# No field lies left of here, on any Hastings-McLeod window: |p| reaches 2e6
# at x = -10 and 2e8 at x = -12 (lambda = 0), so |p|^2 - |q|^2, which should
# be 1, reads 1 + 9.8e-4 at x = -10 and 0 at x = -12.
_X_MIN = -10.0
# Every march starts here, from the closed-form far-field seed (module docstring).
_X_START = 12.5
# The tightest march tolerance a field accepts (PsiField's docstring).
_TOL_MIN = 1e-15


@dataclass(eq=False)
class PsiField:
    """Evaluation context: the parameter x, the potential, and a column cache.

    ``hm`` is the Hastings-McLeod solution that gives the potential u.  The
    cache maps exact binary64 |lambda| to psi11, so lambda and -lambda
    march once (``psi_columns``); it starts empty and is not a constructor
    argument.  ``tol`` is the column accuracy the march aims at:
    it sets the step of the Magnus grid, which scales as tol^(1/6).  It must
    be at least 1e-15: below that a tenfold step moves psi11 at x = -4 by
    3e-14 to 4e-14, its rounding wander, while the grid keeps growing as
    tol^(-1/6) (255 steps at x = 0 at the default, about 1e7 at 1e-40).  The grid
    depends on the field alone and the march is elementwise in lambda, so a
    cached column does not depend, beyond about an ulp, on the batch that
    marched it.  A fresh field given the same requests reproduces every
    value bit for bit, which is why the CLI gives each row its own.  The
    cache lives for one ladder: a PII ladder empties it before its first
    march, since its keys (s * |node|) are not asked for at any other s.  x
    must lie in the solved window and be at least -10, even on a wider
    window: further left the march loses |p|^2 - |q|^2 = 1 at order 1.
    """

    x: float
    hm: HastingsMcLeodSolution
    tol: float = 1e-12
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not (_TOL_MIN <= self.tol < math.inf):
            raise ValueError(f"tol = {self.tol} must be finite and at least {_TOL_MIN}")
        self.hm._check(self.x)
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
    w = i u e^{2 i lambda x}.  u is read at the three Gauss points of every
    step in one ``_u`` call, and nothing is kept on the field.  Each step's
    transfer matrix is formed for all lambdas at once, _CHUNK steps at a
    time, the steps of a chunk are multiplied pairwise in a tree, and the
    chunk products are multiplied in march order.  Every operation is
    elementwise in lambda.  A transfer matrix keeps the form [[p, q],
    [conj q, conj p]], so only (p, q) is carried.

    Returns the arrays (p, q) of the transfer matrix from _X_START to
    field_.x, one entry per lambda.  The seed does not depend on _X_START:
    phi1 = p conj(c) - i q c with c = e^{i (4/3) lambda^3}, and
    psi11 = e^{-i lambda x} phi1 (``psi_columns``).
    """
    lams = np.asarray(lams, dtype=float)
    ends = _grid(field_)
    steps = np.diff(ends)
    gauss = ends[:-1, None] + steps[:, None] * _GAUSS3
    pot = field_._u(gauss.ravel()).reshape(gauss.shape)
    p = np.ones(len(lams), dtype=complex)
    q = np.zeros(len(lams), dtype=complex)
    for k in range(0, len(steps), _CHUNK):
        h, xg, u = steps[k:k + _CHUNK], gauss[k:k + _CHUNK], pot[k:k + _CHUNK]
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
    an empty request gives shape (0, 2).  Only |lambda| is marched: the
    system at -lambda is the conjugate of the one at lambda, up to the
    sign of the second component, so psi11(-lambda) = conj psi11(lambda)
    for real lambda, and a lambda and its negative march once.
    ``field_.cache`` maps each exact |lambda| to psi11 alone, and a
    negative lambda reads the conjugate of its entry; psi21 = -i
    conj(psi11), the Lax pair's pairing for real lambda, is formed on
    every read.  So the kernel on mirrored nodes is exactly even.

    The field's one Magnus grid serves every batch and the work of each
    step is vectorised over lambdas, so much of a march's cost is per
    batch: at x = 0 one lambda takes about 1.2 ms and 48 take about 2.5 ms
    on a 2-core host.
    So ``log_det_converged`` marches the 48 non-negative nodes of a PII
    ladder's first two rungs in one call up front, and a higher rung's
    ``kernel_matrix`` marches its own here, in one batch, when the ladder
    reaches it.  A repeated |lambda| is marched once.
    """
    lams = _check_lams(lams)
    mags = np.abs(lams).tolist()
    missing = list(dict.fromkeys(lam for lam in mags if lam not in field_.cache))
    if missing:
        grid = np.array(missing)
        p, q = _march(field_, grid)
        cubic = np.exp(1j * ((4.0 / 3.0) * grid ** 3))
        psi11 = (p * np.conj(cubic) - 1j * (q * cubic)) * np.exp(-1j * (field_.x * grid))
        field_.cache.update(zip(missing, psi11.tolist()))
    psi11 = np.array([field_.cache[lam] for lam in mags], dtype=complex)
    neg = lams < 0.0
    psi11[neg] = np.conj(psi11[neg])
    return np.stack([psi11, -1j * np.conj(psi11)], axis=1)


def _lambda_derivative(field_: PsiField, lam, psi11):
    """d psi11 / d lambda at lam, from the first row of the lambda-equation
    d psi / d lambda = A psi with the traceless A = [[a11, a12], [a21,
    -a11]], and psi21 = -i conj(psi11), the Lax pair's pairing for real
    lambda.

    Works elementwise on arrays; the caller supplies psi11.
    """
    u, ux = field_.hm.u_at(field_.x), field_.hm.u_x_at(field_.x)
    a11 = -1j * (4.0 * lam ** 2 + field_.x + 2.0 * u * u)
    a12 = 4j * lam * u - 2.0 * ux
    return a11 * psi11 + a12 * (-1j * np.conj(psi11))
