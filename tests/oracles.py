"""Test oracles for the column march of ``gapdet.psi``.

``psi_det`` is the determinant |p|^2 - |q|^2 of the march's transfer
matrix: every step's is 1, so any deviation from 1 measures transport
error.

``psi_column_ray`` is a second route to the column.  It integrates the
phase-extracted column phi = psi e^{i theta} in the spectral variable from
lambda0 = iR with the first-order far-field seed phi = (1 - iv/(2
lambda0), u/(2 lambda0)), each leg of the path by fixed-step sixth-order
Magnus with the free phase exact in every step, so nothing can fail; on x
in {-1, 0, 1} and lambda in [-2, 3] it is within 1.3e-12 of DOP853 at
rtol = atol = 3e-14.  Its seed carries a multiplicative O(R^-2) bias (the
second-order moment of the far-field expansion is not available in closed
form from the inputs we keep): harmless for cross-checks and large x, too
coarse for determinants whose top eigenvalue sits within 1e-8 of 1.  It
builds its own lambda-matrix, so it shares no code with the kernel
diagonal's ``psi._lambda_derivative``.

``dense_kernel_dx`` is dK/dx as a whole matrix, the form the x-slope used
before it took the rank-two factor of ``kernel_dx_factors``.
"""

import math

import numpy as np

from gapdet import PII, PsiField, psi_columns, v_at
from gapdet.kernels import _TAYLOR_RADIUS
from gapdet.psi import _GAUSS3, _check_lams, _march

# The largest seed radius of the ray route, whose step count grows as R^2.
_R_MAX = 64.0


def psi_det(field_: PsiField, lam: float) -> float:
    """|p|^2 - |q|^2 of the transfer matrix [[p, q], [conj q, conj p]] to field_.x."""
    _check_lams(lam)
    p, q = _march(field_, np.array([lam]))
    return float(p[0].real ** 2 + p[0].imag ** 2 - (q[0].real ** 2 + q[0].imag ** 2))


def _lambda_matrix(field_: PsiField, lam):
    """(a11, a12, a21) of the traceless A of d psi / d lambda = A psi, elementwise."""
    u, ux = field_.hm.u_at(field_.x), field_.hm.u_x_at(field_.x)
    a11 = -1j * (4.0 * lam ** 2 + field_.x + 2.0 * u * u)
    a12 = 4j * lam * u - 2.0 * ux
    a21 = -4j * lam * u - 2.0 * ux
    return a11, a12, a21


def _ray_leg(field_: PsiField, a: complex, b: complex, p1: complex, p2: complex) -> tuple:
    """Carry phi = psi e^{i theta} along the segment a -> b of the lambda-plane.

    Sixth-order Magnus in the Blanes-Casas-Ros form of ``psi._step_matrices``,
    on the traceless A of the lambda-equation, steps set by the leg length
    and its largest phase rate.  A step is exp(Omega) = cosh(r) I +
    sinh(r)/r Omega, r^2 = -det Omega, times the exact e^{i h (4 m^2 + h^2/3
    + x)} = e^{i (theta(mu1) - theta(mu0))}, m its midpoint: so every step
    matrix is bounded, and the decay along iR -> 0 is exact.
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
    u, v = field_.hm.u_at(field_.x), v_at(field_.hm, field_.x)
    lam0 = 1j * R
    phi = (1.0 - 1j * v / (2.0 * lam0), u / (2.0 * lam0))
    points = [lam0, 0j, complex(lam)] if path == "dogleg" else [lam0, complex(lam)]
    for a, b in zip(points, points[1:]):
        phi = _ray_leg(field_, a, b, *phi)
    return np.array(phi) * np.exp(-1j * ((4.0 / 3.0) * lam ** 3 + field_.x * lam))


def dense_kernel_dx(spec, points) -> np.ndarray:
    """dK/dx on points x points: cos(Phi) / pi for the trig kernels, 1/pi on
    pairs inside the switch radius, and Re(conj psi11(lambda) psi11(mu)) / pi
    for PII."""
    pts = np.asarray(points, dtype=float)
    if isinstance(spec, PII):
        a = psi_columns(spec.field, pts)[:, 0]
        return (np.outer(a.real, a.real) + np.outer(a.imag, a.imag)) / math.pi
    t = spec.t
    d = pts[:, None] - pts[None, :]
    near = np.abs(d) < _TAYLOR_RADIUS
    sq = pts ** 2
    g = sq[:, None] + sq[None, :]
    g += pts[:, None] * pts[None, :]
    g *= (4.0 / 3.0) * t
    g += spec.x
    safe = np.abs(d, out=d)
    safe[near] = 1.0
    g *= safe
    np.cos(g, out=g)
    g /= math.pi
    g[near] = 1.0 / math.pi
    return g
