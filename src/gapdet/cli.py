"""Command-line front end: determinant tables, prediction verdicts, and
dumps of the underlying objects.

Output contract: CSV with one header line and 17-significant-digit floats,
or a JSON mirror of the same fields; identical configurations produce
byte-identical bytes (no timestamps, no locale formatting).  Exit codes:
0 all good, 1 a verification row failed, 2 bad usage or bad domain, 3 a
numerical-integrity fault, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asympt import (
    dyson_sine_prediction,
    fcet_fit,
    logsasy_prediction,
    logxasy_prediction,
    theorem1_prediction,
    theorem2_prediction,
)
from .fredholm import (
    DetIntegrityError,
    dlogdet_ds,
    dlogdet_dx,
    log_det,
    log_det_converged,
)
from .kernels import CubicSine, KernelIntegrityError, PII, Sine, kernel_matrix
from .mpnum import NewtonConvergenceError, SingularMatrixError, gauss_legendre
from .painleve2 import (
    NewtonDivergenceError,
    WrongBranchError,
    solve_hm,
    v_at,
)
from .psi import PsiField, StiffnessError, psi_column_ray, psi_columns

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_IO = 4

_FORMULAS = ("dyson", "theorem1", "theorem2", "logsasy", "logxasy", "fcet")

_DEFAULT_S = {
    "dyson": [4.0, 5.0, 6.0],
    "theorem1": [1.6, 1.8, 2.0],
    "theorem2": [1.6, 1.8, 2.0],
    "logsasy": [2.0],
    "logxasy": [2.0],
    "fcet": [1.6, 1.8, 2.0, 2.1],
}

_DEFAULT_KERNEL = {
    "dyson": "sine",
    "theorem2": "csin",
    "theorem1": "pii",
    "logsasy": "pii",
    "logxasy": "pii",
    "fcet": "pii",
}

_FCET_BAND = (5.5, 6.3)


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from the flag set."""

    command: str
    kernel: Optional[str]
    s_list: list
    x: float
    t: float
    n: Optional[int]
    output_format: str
    output_path: Optional[str]
    tol: Optional[float]
    hm_window: tuple
    psi_r: Optional[float]
    formula: Optional[str]
    what: Optional[str]


class _UsageError(ValueError):
    pass


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _parse_s_list(text: str) -> list:
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise _UsageError(f"bad --s list {text!r}")
    if not vals:
        raise _UsageError("--s list is empty")
    if any(v < 0 for v in vals):
        raise _UsageError("--s values must be nonnegative")
    return vals


def _parse_window(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--hm-window wants L,R,H, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"bad --hm-window {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapdet",
        description="Gap-probability determinants, asymptotic verdicts, and dumps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kernel", choices=("sine", "csin", "pii"))
        p.add_argument("--x", type=float, default=1.0)
        p.add_argument("--t", type=float, default=1.0)
        p.add_argument("--s", default=None, help="comma-separated half-widths")
        p.add_argument("--n", type=int, default=None,
                       help="fixed quadrature order (omit for self-converged)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--hm-window", default=None, help="L,R,H for the BVP solve")
        p.add_argument("--psi-R", type=float, default=None, dest="psi_r",
                       help="spectral-ray seed radius; a psi dump uses the ray route when set")

    p_det = sub.add_parser("det", help="log det(I - K) table over s")
    common(p_det)
    p_ver = sub.add_parser("verify", help="compare determinants against predictions")
    common(p_ver)
    p_ver.add_argument("--formula", choices=_FORMULAS, required=True)
    p_dump = sub.add_parser("dump", help="dump solver internals as CSV/JSON")
    common(p_dump)
    p_dump.add_argument("--what", choices=("hm", "psi", "kernel"), required=True)
    return ap


def _config(ns) -> RunConfig:
    window = _parse_window(ns.hm_window) if ns.hm_window else (-10.0, 8.0, 0.002)
    formula = getattr(ns, "formula", None)
    if ns.s is not None:
        s_list = _parse_s_list(ns.s)
    elif formula is not None:
        s_list = list(_DEFAULT_S[formula])
    else:
        s_list = [1.0]
    kernel = ns.kernel
    if kernel is None:
        kernel = _DEFAULT_KERNEL[formula] if formula else "sine"
    if not 0.0 <= ns.t <= 1.0:
        raise _UsageError(f"--t {ns.t} outside [0, 1]")
    return RunConfig(
        command=ns.command,
        kernel=kernel,
        s_list=s_list,
        x=ns.x,
        t=ns.t,
        n=ns.n,
        output_format=ns.format,
        output_path=ns.out,
        tol=ns.tol,
        hm_window=window,
        psi_r=ns.psi_r,
        formula=formula,
        what=getattr(ns, "what", None),
    )


def _solve_window(cfg: RunConfig):
    left, right, h = cfg.hm_window
    return solve_hm(x_left=left, x_right=right, h=h)


def _spec_for(cfg: RunConfig, sol):
    """Kernel spec factory; PII gets a fresh field per call so no row's
    value depends on the column cache left by the rows before it."""
    if cfg.kernel == "sine":
        return Sine(x=cfg.x)
    if cfg.kernel == "csin":
        return CubicSine(t=cfg.t, x=cfg.x)
    return PII(x=cfg.x, field=PsiField(x=cfg.x, hm=sol))


def _norm(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _render(cfg: RunConfig, header, rows) -> str:
    rows = [tuple(_norm(v) for v in row) for row in rows]
    if cfg.output_format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps({"command": cfg.command, "rows": payload}, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_det(cfg: RunConfig) -> tuple:
    sol = _solve_window(cfg) if cfg.kernel == "pii" else None

    def row(s):
        spec = _spec_for(cfg, sol)
        ev = log_det(spec, s, cfg.n) if cfg.n is not None else log_det_converged(spec, s)
        return (s, ev.n, float(ev.log_det), ev.converged, float(ev.pivot_min))

    rows = [row(s) for s in cfg.s_list]
    return _render(cfg, ("s", "n", "log_det", "converged", "pivot_min"), rows), True


def _verify_pair(cfg: RunConfig, sol, s: float) -> tuple:
    """(computed, predicted) for one s under the configured formula."""
    spec = _spec_for(cfg, sol)
    f = cfg.formula
    if f == "dyson":
        return _det_value(cfg, spec, s), dyson_sine_prediction(s, cfg.x).value
    if f == "theorem2":
        return _det_value(cfg, spec, s), theorem2_prediction(s, cfg.x).value
    if f == "theorem1":
        return _det_value(cfg, spec, s), theorem1_prediction(s, cfg.x, sol).value
    if f == "logsasy":
        return dlogdet_ds(spec, s), logsasy_prediction(s, cfg.x)
    # logxasy
    return dlogdet_dx(spec, s), logxasy_prediction(s, cfg.x, v_at(sol, cfg.x))


def _det_value(cfg: RunConfig, spec, s: float) -> float:
    ev = log_det(spec, s, cfg.n) if cfg.n is not None else log_det_converged(spec, s)
    return float(ev.log_det)


def _default_tol(cfg: RunConfig, s: float) -> float:
    if cfg.tol is not None:
        return cfg.tol
    if cfg.formula == "dyson":
        return 0.25 / s
    if cfg.formula in ("theorem1", "theorem2"):
        return 1.0
    return 0.5


def cmd_verify(cfg: RunConfig) -> tuple:
    needs_sol = cfg.kernel == "pii" or cfg.formula in ("theorem1", "logxasy")
    sol = _solve_window(cfg) if needs_sol else None

    if cfg.formula == "fcet":
        samples = [(s, _det_value(cfg, _spec_for(cfg, sol), s)) for s in cfg.s_list]
        exponent, _ = fcet_fit(samples)
        if cfg.tol is not None:
            ok = abs(exponent - 6.0) <= cfg.tol
        else:
            ok = _FCET_BAND[0] <= exponent <= _FCET_BAND[1]
        rows = [(max(cfg.s_list), exponent, 6.0, abs(exponent - 6.0), ok)]
    else:
        rows = []
        for s in cfg.s_list:
            computed, predicted = _verify_pair(cfg, sol, s)
            err = abs(computed - predicted)
            rows.append((s, computed, predicted, err, err <= _default_tol(cfg, s)))

    all_ok = all(r[-1] for r in rows)
    return _render(cfg, ("s", "computed", "predicted", "abs_err", "pass"), rows), all_ok


def cmd_dump(cfg: RunConfig) -> tuple:
    if cfg.what == "hm":
        sol = _solve_window(cfg)
        rows = list(zip(sol.x, sol.u, sol.u_x, sol.v))
        return _render(cfg, ("x", "u", "u_x", "v"), rows), True

    if cfg.what == "psi":
        sol = _solve_window(cfg)
        field = PsiField(x=cfg.x, hm=sol)
        m = cfg.n if cfg.n is not None else 81
        lams = np.linspace(-1.0, 1.0, m)
        if cfg.psi_r is not None:
            cols = [psi_column_ray(field, float(v), R=cfg.psi_r) for v in lams]
        else:
            cols = psi_columns(field, lams)
        rows = [
            (c.lam, c.psi11.real, c.psi11.imag, c.psi21.real, c.psi21.imag)
            for c in cols
        ]
        header = ("lambda", "re_psi11", "im_psi11", "re_psi21", "im_psi21")
        return _render(cfg, header, rows), True

    # kernel matrix on the Nystrom nodes
    n = cfg.n if cfg.n is not None else 16
    s = cfg.s_list[0]
    sol = _solve_window(cfg) if cfg.kernel == "pii" else None
    spec = _spec_for(cfg, sol)
    pts = s * gauss_legendre(n).nodes_f8
    mat = kernel_matrix(spec, pts)
    header = tuple(f"c{j}" for j in range(n))
    rows = [tuple(float(v) for v in mat[i]) for i in range(n)]
    return _render(cfg, header, rows), True


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE

    try:
        cfg = _config(ns)
        if cfg.command == "det":
            text, ok = cmd_det(cfg)
        elif cfg.command == "verify":
            text, ok = cmd_verify(cfg)
        else:
            text, ok = cmd_dump(cfg)
    except _UsageError as e:
        print(f"gapdet: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DetIntegrityError, KernelIntegrityError, SingularMatrixError,
            StiffnessError, NewtonDivergenceError, NewtonConvergenceError,
            WrongBranchError) as e:
        print(f"gapdet: integrity: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as e:
        print(f"gapdet: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if cfg.output_path is None:
            sys.stdout.write(text)
        else:
            with open(cfg.output_path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
    except OSError as e:
        print(f"gapdet: i/o: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
