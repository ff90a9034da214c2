"""Gap probabilities for the cubic-sine and Painleve-II kernels via
high-precision Fredholm determinants.

The pieces, bottom up: double-double arithmetic on (hi, lo) pairs,
Gauss-Legendre rules and an extended-precision LDL^T (`mpnum`); Airy functions
and the expansion constants as exact rationals (`specfun`); the
Hastings-McLeod solution and its tail integral (`painleve2`); the
linear-system columns, marched in x (`psi`); the kernels (`kernels`);
Nystrom determinants and log-derivatives (`fredholm`); the closed-form
predictions and the exponent fit (`asympt`); and a CLI (`cli`, installed
as ``gapdet``).
"""

from .asympt import (
    AsymptoticPrediction,
    dyson_sine_prediction,
    fcet_fit,
    logsasy_prediction,
    logxasy_prediction,
    theorem1_prediction,
    theorem2_prediction,
)
from .fredholm import (
    DetEvaluation,
    DetIntegrityError,
    dlogdet_ds,
    dlogdet_dx,
    log_det,
    log_det_converged,
)
from .kernels import (
    CubicSine,
    KernelIntegrityError,
    KernelSpec,
    PII,
    Sine,
    kernel_matrix,
)
from .mpnum import (
    LogDetResult,
    NotPositiveDefiniteError,
    QuadratureRule,
    gauss_legendre,
    log_det_lu,
)
from .painleve2 import (
    HastingsMcLeodSolution,
    NewtonDivergenceError,
    WrongBranchError,
    solve_hm,
    tw_integral,
    v_at,
)
from .psi import PsiField, psi_columns
from .specfun import CONSTANTS, Constants, airy_ai, airy_ai_prime

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "CONSTANTS",
    "Constants",
    "CubicSine",
    "DetEvaluation",
    "DetIntegrityError",
    "HastingsMcLeodSolution",
    "KernelIntegrityError",
    "KernelSpec",
    "LogDetResult",
    "NewtonDivergenceError",
    "NotPositiveDefiniteError",
    "PII",
    "PsiField",
    "QuadratureRule",
    "Sine",
    "WrongBranchError",
    "airy_ai",
    "airy_ai_prime",
    "dlogdet_ds",
    "dlogdet_dx",
    "dyson_sine_prediction",
    "fcet_fit",
    "gauss_legendre",
    "kernel_matrix",
    "log_det",
    "log_det_converged",
    "log_det_lu",
    "logsasy_prediction",
    "logxasy_prediction",
    "psi_columns",
    "solve_hm",
    "theorem1_prediction",
    "theorem2_prediction",
    "tw_integral",
    "v_at",
]
