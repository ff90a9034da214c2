"""End-to-end acceptance battery.

Each test prints exactly one ``criterion N ...: PASS/FAIL`` line with the
measured numbers, then asserts.  Tolerances are pinned here and nowhere else;
run with ``pytest -rA`` (the default addopts) to see the lines.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from gapdet import (
    CubicSine,
    PII,
    PsiField,
    Sine,
    dlogdet_ds,
    dlogdet_dx,
    dyson_sine_prediction,
    fcet_fit,
    kernel_matrix,
    log_det,
    log_det_converged,
    logsasy_prediction,
    logxasy_prediction,
    theorem1_prediction,
    theorem2_prediction,
    tw_integral,
    v_at,
)
from gapdet.specfun import airy_ai
from oracles import psi_column_ray, psi_det


def _report(num: int, name: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL " + "; ".join(failures)
    print(f"criterion {num} {name}: {status} ({detail})")
    assert not failures


def test_criterion_1_wide_interval_tracks_the_sine_prediction():
    t0 = time.perf_counter()
    failures, errs = [], []
    for s in (4.0, 5.0, 6.0):
        ld = float(log_det(Sine(x=1.0), s, 200).log_det)
        err = abs(ld - dyson_sine_prediction(s, 1.0).value)
        errs.append(err)
        if err > 0.25 / s:
            failures.append(f"err {err:.3e} > {0.25 / s:.3e} at s={s}")
    if not errs[0] > errs[1] > errs[2]:
        failures.append("errors not strictly decreasing")
    dt = time.perf_counter() - t0
    if dt > 60.0:
        failures.append(f"runtime {dt:.1f}s > 60s")
    _report(1, "sine kernel vs its prediction", failures,
            f"errs {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, n=200, {dt:.1f}s")


def test_criterion_2_cubic_trig_tracks_theorem2():
    t0 = time.perf_counter()
    failures, details = [], []
    for x in (0.0, 1.0):
        errs = []
        for s in (1.6, 1.8, 2.0):
            ld = float(log_det_converged(CubicSine(t=1.0, x=x), s).log_det)
            err = abs(ld - theorem2_prediction(s, x).value)
            errs.append(err)
            if err > 1.0:
                failures.append(f"err {err:.3e} > 1.0 at s={s}, x={x}")
        if not errs[0] > errs[1] > errs[2]:
            failures.append(f"errors not decreasing at x={x}")
        details.append(f"x={x}: {errs[0]:.2e}>{errs[1]:.2e}>{errs[2]:.2e}")
    ref = theorem2_prediction(2.0, 1.0).value
    if abs(ref - (-61.798)) > 1e-3:
        failures.append(f"prediction {ref:.6f} not within 1e-3 of -61.798")
    dt = time.perf_counter() - t0
    if dt > 600.0:
        failures.append(f"runtime {dt:.1f}s > 600s")
    _report(2, "cubic trig kernel vs theorem2", failures,
            "; ".join(details) + f", ref {ref:.5f}, {dt:.1f}s")


def test_criterion_3_rank_structured_kernel_tracks_theorem1(hm):
    t0 = time.perf_counter()
    failures, details = [], []
    for x in (-1.0, 0.0, 1.0):
        spec = PII(x=x, field=PsiField(x=x, hm=hm))
        errs = []
        for s in (1.6, 1.8, 2.0):
            ld = float(log_det_converged(spec, s).log_det)
            err = abs(ld - theorem1_prediction(s, x, hm).value)
            errs.append(err)
            if err > 1.0:
                failures.append(f"err {err:.3e} > 1.0 at s={s}, x={x}")
        if not errs[0] > errs[1] > errs[2]:
            failures.append(f"errors not decreasing at x={x}")
        details.append(f"x={x}: {errs[0]:.2e}>{errs[1]:.2e}>{errs[2]:.2e}")
    dt = time.perf_counter() - t0
    if dt > 1800.0:
        failures.append(f"runtime {dt:.1f}s > 1800s")
    _report(3, "rank-structured kernel vs theorem1", failures,
            "; ".join(details) + f", {dt:.1f}s")


def test_criterion_4_log_derivatives_track_the_slope_formulas(hm):
    t0 = time.perf_counter()
    failures, details = [], []
    for x in (0.0, 1.0):
        spec = PII(x=x, field=PsiField(x=x, hm=hm))
        ds = dlogdet_ds(spec, 2.0)
        err_s = abs(ds - logsasy_prediction(2.0, x))
        dx = dlogdet_dx(spec, 2.0)
        err_x = abs(dx - logxasy_prediction(2.0, x, v_at(hm, x)))
        if err_s > 0.5:
            failures.append(f"interval-slope err {err_s:.3e} > 0.5 at x={x}")
        if err_x > 0.5:
            failures.append(f"parameter-slope err {err_x:.3e} > 0.5 at x={x}")
        details.append(f"x={x}: ds {err_s:.2e}, dx {err_x:.2e}")
    dt = time.perf_counter() - t0
    _report(4, "log-derivatives vs slope formulas", failures,
            "; ".join(details) + f", {dt:.1f}s")


def test_criterion_5_large_x_collapse_onto_the_trig_kernel(hm):
    t0 = time.perf_counter()
    failures = []
    spec = PII(x=8.0, field=PsiField(x=8.0, hm=hm))
    trig = CubicSine(t=1.0, x=8.0)
    pts = np.linspace(-1.0, 1.0, 5)
    kerr = float(np.max(np.abs(kernel_matrix(spec, pts) - kernel_matrix(trig, pts))))
    if kerr > 1e-4:
        failures.append(f"kernel gap {kerr:.3e} > 1e-4")
    da = float(log_det(spec, 1.0, 64).log_det)
    db = float(log_det(trig, 1.0, 64).log_det)
    derr = abs(da - db)
    if derr > 1e-3:
        failures.append(f"determinant gap {derr:.3e} > 1e-3")
    dt = time.perf_counter() - t0
    _report(5, "x=8 collapse onto the trig kernel", failures,
            f"kernel {kerr:.2e}, logdet {derr:.2e}, {dt:.1f}s")


def test_criterion_6_fitted_exponent_in_band(hm):
    t0 = time.perf_counter()
    failures = []
    spec = PII(x=0.0, field=PsiField(x=0.0, hm=hm))
    samples = [(s, float(log_det_converged(spec, s).log_det))
               for s in (1.6, 1.8, 2.0, 2.1)]
    exponent, _ = fcet_fit(samples)
    if not 5.5 <= exponent <= 6.3:
        failures.append(f"exponent {exponent:.3f} outside [5.5, 6.3]")
    dt = time.perf_counter() - t0
    _report(6, "fitted gap exponent", failures, f"exponent {exponent:.3f}, {dt:.1f}s")


def test_criterion_7_property_battery(hm):
    t0 = time.perf_counter()
    failures = []

    def check(label, value, bound):
        if not value <= bound:
            failures.append(f"{label} {value:.3e} > {bound:.0e}")

    check("bvp residual", hm.residual, 1e-8)
    check("right-edge match", abs(hm.u_at(6.0) / airy_ai(6.0) - 1.0), 1e-5)
    check("left asymptote", abs(hm.u_at(-8.0) - 2.0), 1e-2)
    mid, _ = quad(lambda y: hm.u_at(y) ** 2, -2.0, 6.0, limit=200, epsabs=1e-12)
    check("squared-mass identity", abs((v_at(hm, -2.0) - v_at(hm, 6.0)) - mid), 1e-7)

    f1 = PsiField(x=1.0, hm=hm)
    for lam in (0.5, 2.0):
        check(f"unimodularity lam={lam}", abs(psi_det(f1, lam) - 1.0), 1e-8)
    a = psi_column_ray(f1, 1.5, path="dogleg")
    b = psi_column_ray(f1, 1.5, path="direct")
    check("ray path independence", abs(a[0] - b[0]), 1e-9)

    pts = np.linspace(-1.2, 1.2, 8)
    spec = PII(x=1.0, field=f1)
    kp = kernel_matrix(spec, pts)  # raises on any value that is not finite
    if not np.array_equal(kp, kp.T):
        failures.append("rank-structured matrix not symmetric")
    kt = kernel_matrix(CubicSine(t=0.7, x=1.0), pts)
    if not np.array_equal(kt, kt.T):
        failures.append("trig matrix not symmetric")

    for label, spec2, s in (("sine", Sine(x=1.0), 4.0),
                            ("cubic trig", CubicSine(t=1.0, x=1.0), 2.0),
                            ("rank-structured", spec, 1.0)):
        if not log_det_converged(spec2, s).converged:
            failures.append(f"ladder did not settle for {label} at s={s}")

    if float(log_det(Sine(x=1.0), 0.0, 32).log_det) != 0.0:
        failures.append("empty interval not exactly zero")

    za = log_det(CubicSine(t=0.0, x=1.0), 1.5, 64).log_det
    zb = log_det(Sine(x=1.0), 1.5, 64).log_det
    if za != zb:
        failures.append("zero-t determinant differs from the sine kernel")

    dt = time.perf_counter() - t0
    _report(7, "property battery", failures, f"{dt:.1f}s")
