"""Compute the committed reference values in bench/refs.json.

The references are refined well past what the benchmarked calls use: a
Hastings-McLeod solve at h = 0.0005, a column march at tol = 1e-13 and a
single n = 256 Nystrom rung.  Slopes are centred differences with the same
h = 1e-3 the library uses, so the difference truncation cancels against the
value under test and only the refinement gap remains.

Run from the repository root (takes several minutes on one core):

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import CLI_S, CLI_X, PII_S, PII_X, SLOPE_H, grid_key  # noqa: E402

from gapdet import PII, PsiField, log_det, solve_hm  # noqa: E402

REF_N = 256
REF_HM_H = 0.0005
REF_TOL = 1e-13


def main() -> int:
    t0 = time.perf_counter()
    hm = solve_hm(h=REF_HM_H)

    def ld(x: float, s: float):
        field = PsiField(x=x, hm=hm, tol=REF_TOL)
        return log_det(PII(x=x, field=field), s, REF_N).log_det

    pii = {}
    for x in PII_X:
        for s in PII_S:
            pii[grid_key(x, s)] = float(ld(x, s))
            print("pii", x, s, pii[grid_key(x, s)], f"{time.perf_counter() - t0:.0f}s", flush=True)

    slopes = {"logsasy": {}, "logxasy": {}}
    h = SLOPE_H
    for x in CLI_X:
        for s in CLI_S:
            ds = float(ld(x, s + h) - ld(x, s - h)) / (2.0 * h)
            dx = float(ld(x + h, s) - ld(x - h, s)) / (2.0 * h)
            slopes["logsasy"][grid_key(x, s)] = ds
            slopes["logxasy"][grid_key(x, s)] = dx
            print("slopes", x, s, ds, dx, f"{time.perf_counter() - t0:.0f}s", flush=True)

    out = {
        "how": {"solve_hm_h": REF_HM_H, "psi_tol": REF_TOL, "n": REF_N,
                "slope_h": SLOPE_H, "script": "bench/make_refs.py"},
        "pii_log_det": pii,
        "slopes": slopes,
    }
    (HERE / "refs.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
