"""Closed-form large-gap asymptotics and the emptiness-exponent fit.

Every prediction decomposes as value = leading + constant + tw_term so a
mismatch against a computed determinant can be attributed to a term.  The
common polynomial part is

    A(s, x) = -(2/3) s^6 - s^4 x - (1/2)(sx)^2 - (3/4) ln s,

shared by the cubic-phase and column-kernel expansions; they differ only in
whether the x-dependent tail integral of the squared Hastings-McLeod
function is added.  The sine-kernel expansion is the classical one with the
constant (1/12) ln 2 + 3 zeta'(-1).  No O(1/s) corrections are modeled;
callers pick tolerances that absorb them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .painleve2 import HastingsMcLeodSolution, tw_integral
from .specfun import CONSTANTS

__all__ = [
    "AsymptoticPrediction",
    "dyson_sine_prediction",
    "fcet_fit",
    "logsasy_prediction",
    "logxasy_prediction",
    "theorem1_prediction",
    "theorem2_prediction",
]

_OMEGA0 = float(CONSTANTS.omega0)
_DYSON = float(CONSTANTS.dyson_const)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A predicted log-determinant split into attributable pieces."""

    value: float
    leading: float
    constant: float
    tw_term: float
    formula_id: str


def _leading(s: float, x: float) -> float:
    return -(2.0 / 3.0) * s ** 6 - x * s ** 4 - 0.5 * (s * x) ** 2 - 0.75 * math.log(s)


def _check(s: float, x: float):
    if not (0.0 < s < math.inf and math.isfinite(x)):
        raise ValueError(f"s = {s} must be finite and positive, x = {x} finite")


def theorem2_prediction(s: float, x: float) -> AsymptoticPrediction:
    """Large-gap expansion for the cubic-phase kernel: A(s, x) + omega0."""
    _check(s, x)
    lead = _leading(s, x)
    return AsymptoticPrediction(
        value=lead + _OMEGA0,
        leading=lead,
        constant=_OMEGA0,
        tw_term=0.0,
        formula_id="theorem2",
    )


def theorem1_prediction(s: float, x: float,
                        sol: HastingsMcLeodSolution) -> AsymptoticPrediction:
    """Expansion for the column kernel: A(s, x) + omega0 + tail integral.

    theorem2_prediction plus the tail term, evaluated at runtime from the
    supplied solution; it decays to zero as x grows (the two kernels merge).
    """
    base = theorem2_prediction(s, x)
    tw = tw_integral(sol, x)
    return replace(base, value=base.value + tw, tw_term=tw, formula_id="theorem1")


def dyson_sine_prediction(s: float, x: float) -> AsymptoticPrediction:
    """Sine-kernel large-gap expansion, a function of the product sx."""
    if not 0.0 < s * x < math.inf:
        raise ValueError(f"s*x = {s * x} must be finite and positive")
    lead = -0.5 * (x * s) ** 2 - 0.25 * math.log(s * x)
    return AsymptoticPrediction(
        value=lead + _DYSON,
        leading=lead,
        constant=_DYSON,
        tw_term=0.0,
        formula_id="dyson",
    )


def logsasy_prediction(s: float, x: float) -> float:
    """Expansion of d/ds log det for the cubic-phase family."""
    _check(s, x)
    return -4.0 * s ** 5 - 4.0 * x * s ** 3 - x * x * s - 0.75 / s


def logxasy_prediction(s: float, x: float, v: float) -> float:
    """Expansion of d/dx log det; v is the conserved quantity at this x."""
    _check(s, x)
    return -s ** 4 - s * s * x - v - 1.0 / (8.0 * s * s)


def fcet_fit(samples) -> tuple:
    """Least-squares power-law fit of -log_det against s.

    ``samples`` is an iterable of (s, log_det) pairs.  Returns (exponent,
    prefactor) from regressing log(-log_det) on log s; a clean power law
    -C s^p comes back as exactly (p, C).  At least four pairs with distinct
    s >= 1.4 are required: below that the subleading terms bend the fit too
    much to mean anything.
    """
    pts = [(float(s), float(ld)) for s, ld in samples]
    if not all(math.isfinite(s) and math.isfinite(ld) for s, ld in pts):
        raise ValueError("every s and log_det must be finite")
    svals = sorted({s for s, _ in pts})
    if len(pts) < 4 or len(svals) < 4:
        raise ValueError(f"need at least 4 samples at distinct s, got {len(svals)}")
    if svals[0] < 1.4:
        raise ValueError(f"smallest s = {svals[0]} is below 1.4")
    if any(ld >= 0.0 for _, ld in pts):
        raise ValueError("every log_det must be negative to fit a power law")
    xs = np.log([s for s, _ in pts])
    ys = np.log([-ld for _, ld in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(math.exp(intercept))
