"""Command-line front end: determinant tables, prediction verdicts, and
dumps of the underlying objects.

Output contract: CSV with one header line and 17-significant-digit floats,
or a JSON mirror of the same fields; identical configurations produce
byte-identical bytes (no timestamps, no locale formatting).  A flag that
the request would not read is refused, never ignored.  Exit codes:
0 all good, 1 a verification row failed, 2 bad usage or bad domain, 3 a
numerical-integrity fault, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    DetEvaluation,
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
from .psi import PsiField, psi_column_ray, psi_columns

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_IO = 4

# per formula: the kernel it is compared against, the --s list and --x, by
# default; fcet's exponent lands in its band at x = 0 (5.78), not at 1 (5.09)
_DEFAULTS = {
    "dyson": ("sine", [4.0, 5.0, 6.0], 1.0),
    "theorem1": ("pii", [1.6, 1.8, 2.0], 1.0),
    "theorem2": ("csin", [1.6, 1.8, 2.0], 1.0),
    "logsasy": ("pii", [2.0], 1.0),
    "logxasy": ("pii", [2.0], 1.0),
    "fcet": ("pii", [1.6, 1.8, 2.0, 2.1], 0.0),
}

_FCET_BAND = (5.5, 6.3)


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
    """Each subcommand declares only the flags it can read; every flag
    defaults to None so that ``_config`` can tell a given flag from a
    default."""
    ap = argparse.ArgumentParser(
        prog="gapdet",
        description="Gap-probability determinants, asymptotic verdicts, and dumps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(p, n_help):
        p.add_argument("--kernel", choices=("sine", "csin", "pii"))
        p.add_argument("--x", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--s", help="comma-separated half-widths")
        p.add_argument("--n", type=int, help=n_help)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out")
        p.add_argument("--hm-window", help="L,R,H for the BVP solve")

    order = "fixed quadrature order (omit for self-converged)"
    shared(sub.add_parser("det", help="log det(I - K) table over s"), order)
    p_ver = sub.add_parser("verify", help="compare determinants against predictions")
    shared(p_ver, order)
    p_ver.add_argument("--formula", choices=tuple(_DEFAULTS), required=True)
    p_ver.add_argument("--tol", type=float)
    p_dump = sub.add_parser("dump", help="dump solver internals as CSV/JSON")
    shared(p_dump, "kernel: quadrature order (default 16); psi: lambda samples (default 81)")
    p_dump.add_argument("--what", choices=("hm", "psi", "kernel"), required=True)
    p_dump.add_argument("--psi-R", type=float, dest="psi_r",
                        help="spectral-ray seed radius; a psi dump uses the ray route when set")
    return ap


def _solves_pii(cfg) -> bool:
    return (cfg.kernel == "pii" or cfg.formula in ("theorem1", "logxasy")
            or cfg.what in ("hm", "psi"))


# When a given flag is refused: (flag, namespace field, test on the normalized
# request, reason).  A flag the request would not read, or whose value it
# cannot take, is refused here rather than ignored.
_REFUSALS = (
    ("--t", "t", lambda c: c.kernel != "csin", "applies to --kernel csin only"),
    ("--t", "t", lambda c: not 0.0 <= c.t <= 1.0, "{c.t} outside [0, 1]"),
    ("--tol", "tol", lambda c: not 0.0 <= c.tol < np.inf,
     "{c.tol} must be finite and non-negative"),
    ("--hm-window", "hm_window", lambda c: not _solves_pii(c),
     "applies only where Painleve II is solved: a pii kernel, --formula "
     "theorem1 or logxasy, or dump --what hm or psi"),
    ("--n", "n", lambda c: c.formula in ("logsasy", "logxasy"),
     "does not apply to --formula {c.formula}: the slopes choose their "
     "order on the ladder"),
    ("--n", "n", lambda c: c.what == "hm", "does not apply to --what hm"),
    ("--n", "n", lambda c: c.what == "psi" and not 1 <= c.n <= 2000,
     "{c.n}: the psi dump's sample count must lie in [1, 2000]"),
    ("--kernel", "kernel", lambda c: c.what in ("hm", "psi"),
     "does not apply to --what {c.what}"),
    ("--s", "s", lambda c: c.what in ("hm", "psi"), "does not apply to --what {c.what}"),
    ("--s", "s", lambda c: c.what == "kernel" and len(c.s) > 1,
     "takes one value with --what kernel"),
    ("--x", "x", lambda c: c.what == "hm", "does not apply to --what hm"),
    ("--psi-R", "psi_r", lambda c: c.what != "psi",
     "applies to --what psi only, not --what {c.what}"),
)


def _config(ns):
    """Apply the defaults to the parsed namespace and refuse, in one
    message, every given flag that the request would not read or whose
    value it cannot take."""
    given = {name for name, v in vars(ns).items() if v is not None}
    for name in ("formula", "what", "tol", "psi_r"):
        vars(ns).setdefault(name, None)
    ns.hm_window = _parse_window(ns.hm_window) if ns.hm_window else (-10.0, 8.0, 0.002)
    kernel, s_list, x = _DEFAULTS[ns.formula] if ns.formula else ("sine", [1.0], 1.0)
    ns.s = _parse_s_list(ns.s) if ns.s is not None else list(s_list)
    ns.kernel = ns.kernel or kernel
    ns.x = x if ns.x is None else ns.x
    ns.t = 1.0 if ns.t is None else ns.t
    refused = [f"{flag} {why.format(c=ns)}" for flag, name, test, why in _REFUSALS
               if name in given and test(ns)]
    if refused:
        raise _UsageError("; ".join(refused))
    return ns


def _solve(cfg):
    """The Hastings-McLeod solution on the configured window, or None when
    the request does not solve Painleve II."""
    if not _solves_pii(cfg):
        return None
    left, right, h = cfg.hm_window
    return solve_hm(x_left=left, x_right=right, h=h)


def _spec_for(cfg, sol):
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


def _render(cfg, header, rows) -> str:
    rows = [tuple(_norm(v) for v in row) for row in rows]
    if cfg.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps({"command": cfg.command, "rows": payload}, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _evaluate(cfg, spec, s: float) -> DetEvaluation:
    """The determinant at the fixed order --n when given, else the ladder's."""
    return log_det(spec, s, cfg.n) if cfg.n is not None else log_det_converged(spec, s)


def cmd_det(cfg) -> tuple:
    sol = _solve(cfg)

    def row(s):
        ev = _evaluate(cfg, _spec_for(cfg, sol), s)
        return (s, ev.n, float(ev.log_det), ev.converged, float(ev.pivot_min))

    rows = [row(s) for s in cfg.s]
    return _render(cfg, ("s", "n", "log_det", "converged", "pivot_min"), rows), True


def _verify_pair(cfg, sol, s: float) -> tuple:
    """(computed, predicted) for one s under the configured formula."""
    spec = _spec_for(cfg, sol)
    f = cfg.formula
    if f == "logsasy":
        return dlogdet_ds(spec, s), logsasy_prediction(s, cfg.x)
    if f == "logxasy":
        return dlogdet_dx(spec, s), logxasy_prediction(s, cfg.x, v_at(sol, cfg.x))
    computed = float(_evaluate(cfg, spec, s).log_det)
    if f == "dyson":
        return computed, dyson_sine_prediction(s, cfg.x).value
    if f == "theorem2":
        return computed, theorem2_prediction(s, cfg.x).value
    return computed, theorem1_prediction(s, cfg.x, sol).value


def _default_tol(cfg, s: float) -> float:
    if cfg.tol is not None:
        return cfg.tol
    if cfg.formula == "dyson":
        return 0.25 / s
    if cfg.formula in ("theorem1", "theorem2"):
        return 1.0
    return 0.5


def cmd_verify(cfg) -> tuple:
    sol = _solve(cfg)

    if cfg.formula == "fcet":
        samples = [(s, float(_evaluate(cfg, _spec_for(cfg, sol), s).log_det))
                   for s in cfg.s]
        exponent, _ = fcet_fit(samples)
        if cfg.tol is not None:
            ok = abs(exponent - 6.0) <= cfg.tol
        else:
            ok = _FCET_BAND[0] <= exponent <= _FCET_BAND[1]
        rows = [(max(cfg.s), exponent, 6.0, abs(exponent - 6.0), ok)]
    else:
        rows = []
        for s in cfg.s:
            computed, predicted = _verify_pair(cfg, sol, s)
            err = abs(computed - predicted)
            rows.append((s, computed, predicted, err, err <= _default_tol(cfg, s)))

    all_ok = all(r[-1] for r in rows)
    return _render(cfg, ("s", "computed", "predicted", "abs_err", "pass"), rows), all_ok


def cmd_dump(cfg) -> tuple:
    sol = _solve(cfg)
    if cfg.what == "hm":
        rows = list(zip(sol.x, sol.u, sol.u_x, sol.v))
        return _render(cfg, ("x", "u", "u_x", "v"), rows), True

    if cfg.what == "psi":
        field = PsiField(x=cfg.x, hm=sol)
        m = cfg.n if cfg.n is not None else 81
        lams = np.linspace(-1.0, 1.0, m)
        if cfg.psi_r is not None:
            cols = [psi_column_ray(field, float(v), R=cfg.psi_r) for v in lams]
        else:
            cols = psi_columns(field, lams)
        rows = [(lam, a.real, a.imag, b.real, b.imag) for lam, (a, b) in zip(lams, cols)]
        header = ("lambda", "re_psi11", "im_psi11", "re_psi21", "im_psi21")
        return _render(cfg, header, rows), True

    # kernel matrix on the Nystrom nodes
    n = cfg.n if cfg.n is not None else 16
    spec = _spec_for(cfg, sol)
    pts = cfg.s[0] * gauss_legendre(n).nodes_f8
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
            NewtonDivergenceError, NewtonConvergenceError, WrongBranchError) as e:
        print(f"gapdet: integrity: {e}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as e:
        print(f"gapdet: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
    except OSError as e:
        print(f"gapdet: i/o: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
