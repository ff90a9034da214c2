"""Airy functions on the positive real line and the constants of the gap
expansions.

Ai and Ai' are evaluated on [0.5, 40] from the Bessel-K integrals
(DLMF 9.6.1, 10.32.9), with zeta = (2/3) x^{3/2}:

    Ai(x) = (1/pi) sqrt(x/3) K_{1/3}(zeta),
    Ai'(x) = -(x / (pi sqrt 3)) K_{2/3}(zeta),
    K_nu(zeta) = int_0^inf e^{-zeta cosh t} cosh(nu t) dt.

The integrand decays doubly exponentially, so the trapezoid rule converges
exponentially in the number of nodes (Trefethen and Weideman, SIAM Review
56, 2014): 41 nodes t_j = j h, h = min(0.2, 0.5 / sqrt(zeta)), with the
factor e^{-zeta} taken out of the integrand (cosh t - 1 = 2 sinh(t/2)^2)
and put back at the end.  Every point is one row of numpy expressions,
evaluated _ROWS = 256 points at a time: one call on the Hastings-McLeod
grid's 3,750 points right of x = 0.5 would hold five (points, 41) arrays
of 1.2 MB, and blocks keep each at 84 KB whatever the grid.  A point's
arithmetic and its row's sum do not depend on the block, so neither do
the values.  No part of scipy is loaded.  Against mpmath at 30 digits,
over 1,201 equally spaced points on [0.5, 40], the worst relative error
of either function is 3.7e-14, set by the rounding of zeta in e^{-zeta}
near x = 40.
Left of 0.5 the Hastings-McLeod solve and the column march never need Ai
(the solve's right edge is at x >= 6), so the domain stops there.
The constants are exact rationals, formed from 36-digit literals; callers
round them once, with float().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Constants",
    "CONSTANTS",
    "airy_ai",
    "airy_ai_prime",
]

# 36-digit literals, parsed exactly at import time.
# Each is validated by an independent oracle in the test suite.
_ZETA_PRIME_MINUS1 = Fraction("-0.165421143700450929213919660242780643")
_LN2 = Fraction("0.693147180559945309417232121458176568")


@dataclass(frozen=True)
class Constants:
    """The closed-form constants entering the large-gap expansions, exactly.

    ``zeta_prime_minus1`` is zeta'(-1), equal to 1/12 minus the log of the
    Glaisher constant.
    """

    zeta_prime_minus1: Fraction
    ln2: Fraction
    omega0: Fraction
    dyson_const: Fraction


CONSTANTS = Constants(_ZETA_PRIME_MINUS1, _LN2, -_LN2 / 6 + 3 * _ZETA_PRIME_MINUS1,
                      _LN2 / 12 + 3 * _ZETA_PRIME_MINUS1)


# ---------------------------------------------------------------------------
# Airy Ai and Ai'
# ---------------------------------------------------------------------------

_X_MIN = 0.5
_X_MAX = 40.0
_NODES = np.arange(41.0)
_TRAPEZOID = np.where(_NODES == 0.0, 0.5, 1.0)


# Points per block of the trapezoid rule: its (rows, 41) temporaries then
# hold at most _ROWS rows, whatever the number of points.
_ROWS = 256


def _airy_pair(x):
    """(Ai, Ai') as arrays of x's shape, by the trapezoid rule on the
    Bessel-K integrals, _ROWS points at a time."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # written so that NaN, for which every comparison is False, is rejected
    if not np.all((xa >= _X_MIN) & (xa <= _X_MAX)):
        raise ValueError(f"argument outside [{_X_MIN}, {_X_MAX}]")
    flat = xa.ravel()
    ai, aip = np.empty_like(flat), np.empty_like(flat)
    for lo in range(0, len(flat), _ROWS):
        xb = flat[lo:lo + _ROWS]
        zeta = (2.0 / 3.0) * xb * np.sqrt(xb)
        h = np.minimum(0.2, 0.5 / np.sqrt(zeta))
        t = h[:, None] * _NODES
        # e^{zeta} e^{-zeta cosh t}, times the trapezoid end weights
        w = np.exp(-2.0 * zeta[:, None] * np.sinh(0.5 * t) ** 2) * _TRAPEZOID
        k13 = h * np.sum(w * np.cosh(t / 3.0), axis=-1)
        k23 = h * np.sum(w * np.cosh((2.0 / 3.0) * t), axis=-1)
        scale = np.exp(-zeta) / np.pi
        ai[lo:lo + _ROWS] = scale * np.sqrt(xb / 3.0) * k13
        aip[lo:lo + _ROWS] = -scale * (xb / math.sqrt(3.0)) * k23
    return ai.reshape(xa.shape), aip.reshape(xa.shape)


def airy_ai(x):
    """Ai(x) for 0.5 <= x <= 40, scalar or ndarray."""
    ai, _ = _airy_pair(x)
    return float(ai[0]) if np.ndim(x) == 0 else ai


def airy_ai_prime(x):
    """Ai'(x) on the same domain as airy_ai."""
    _, aip = _airy_pair(x)
    return float(aip[0]) if np.ndim(x) == 0 else aip
