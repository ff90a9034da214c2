"""Determinant evaluation on symmetric intervals, plus the log-derivatives."""

import math
import tracemalloc

import numpy as np
import pytest

import gapdet.fredholm
import gapdet.psi
from gapdet import (
    CubicSine,
    DetEvaluation,
    DetIntegrityError,
    PII,
    PsiField,
    Sine,
    dlogdet_ds,
    dlogdet_dx,
    gauss_legendre,
    log_det,
    log_det_converged,
)
from gapdet.mpnum import ExtendedReal, LogDetResult


def test_empty_interval_is_exact():
    ev = log_det(Sine(x=1.0), 0.0, 32)
    assert isinstance(ev, DetEvaluation)
    assert float(ev.log_det) == 0.0 and ev.log_det.lo == 0.0
    assert float(ev.pivot_min) == 1.0
    assert ev.converged


def _trace_expansion_oracle(x: float, s: float) -> float:
    # log det(I - K) = -tr K - tr K^2 / 2 - O(tr K^3) for the sine kernel,
    # written out in closed form; at s = 0.01 the cubic term is below 1e-7.
    r = gauss_legendre(30)
    xs = s * r.nodes_f8
    ws = s * r.weights_f8
    tr1 = sum(ws) * x / math.pi
    tr2 = 0.0
    for xi, wi in zip(xs, ws):
        for xj, wj in zip(xs, ws):
            k = x / math.pi if xi == xj else math.sin(x * (xi - xj)) / (math.pi * (xi - xj))
            tr2 += wi * wj * k ** 2
    return -tr1 - 0.5 * tr2


def test_small_interval_matches_trace_expansion():
    spec = Sine(x=1.0)
    ev = log_det(spec, 0.01, 32)
    assert abs(float(ev.log_det) - _trace_expansion_oracle(1.0, 0.01)) <= 1e-6
    # regression pin for the value the oracle confirms
    assert abs(float(ev.log_det) - (-0.0063865479240455348)) <= 1e-12


def test_wide_sine_interval_value():
    ev = log_det(Sine(x=1.0), 6.0, 200)
    assert abs(float(ev.log_det) - (-18.885537542549258)) <= 1e-9
    assert float(ev.pivot_min) > 0.0


def test_doubling_the_rule_does_not_move_the_answer():
    spec = CubicSine(t=1.0, x=1.0)
    a = log_det(spec, 1.0, 64)
    b = log_det(spec, 1.0, 128)
    assert abs(float(a.log_det) - float(b.log_det)) <= 1e-10


def test_ladder_converges_quickly_for_smooth_kernels(hm):
    spec = PII(x=0.0, field=PsiField(x=0.0, hm=hm))
    ev = log_det_converged(spec, 1.0)
    assert ev.converged and ev.n <= 200
    assert abs(float(ev.log_det) - (-1.2258351385135415)) <= 1e-8


def test_ladder_values_decrease_in_s():
    vals = []
    for s, want in ((0.5, -0.379271228), (1.0, -0.916089054),
                    (1.5, -1.649484871), (2.0, -2.602137863)):
        ev = log_det(Sine(x=1.0), s, 64)
        assert abs(float(ev.log_det) - want) <= 1e-6
        vals.append(float(ev.log_det))
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rule_refinement_is_spectral():
    spec = CubicSine(t=1.0, x=1.0)
    lds = [float(log_det(spec, 2.0, n).log_det) for n in (32, 64, 128)]
    d1 = abs(lds[0] - lds[1])
    d2 = abs(lds[1] - lds[2])
    assert d2 < d1 and d1 / d2 >= 100.0


def test_zero_t_determinants_match_sine_bitwise():
    for s, n in ((0.7, 32), (1.8, 64), (5.0, 128)):
        a = log_det(CubicSine(t=0.0, x=1.0), s, n)
        b = log_det(Sine(x=1.0), s, n)
        assert a.log_det.hi == b.log_det.hi and a.log_det.lo == b.log_det.lo
        assert a.pivot_min.hi == b.pivot_min.hi


def test_top_rung_peak_memory_stays_small():
    # Assembly and elimination at n = 256 hold a few n x n arrays (0.5 MB
    # each) at a time; the whole-matrix update held about 7.3 MB.
    spec, s = CubicSine(t=0.929, x=1.607), 2.074
    log_det(spec, s, 256)                       # build the rule outside the window
    tracemalloc.start()
    try:
        log_det(spec, s, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_pii_ladder_marches_each_rung_when_it_reaches_it(hm, monkeypatch):
    # The first two rungs, which the first gap compares, are marched in one
    # batch before the first rung; a higher rung is marched, in one batch,
    # only when the ladder reaches it.
    marches = []
    march = gapdet.psi._march

    def counting(field_, lams, want_matrix):
        marches.append(len(lams))
        return march(field_, lams, want_matrix)

    monkeypatch.setattr(gapdet.psi, "_march", counting)
    f = PsiField(x=0.0, hm=hm)
    assert log_det_converged(PII(x=0.0, field=f), 1.0).n == 64
    assert marches == [32 + 64]
    assert len(f.cache) == 96
    marches.clear()
    assert log_det_converged(PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0).n == 128
    assert marches == [32 + 64, 128]
    # s is checked before anything is marched
    marches.clear()
    with pytest.raises(ValueError):
        log_det_converged(PII(x=0.0, field=PsiField(x=0.0, hm=hm)), 2.5)
    assert marches == []


def test_a_field_shared_across_s_gives_the_fresh_field_values(hm):
    # Reusing one PsiField for ladders at several s, as the pii_sweep
    # benchmark does, must not change a value: the cache keys are s * node,
    # so each rung's batch is the same as on a fresh field.
    shared = PsiField(x=1.0, hm=hm)
    for s, n in ((1.8, 64), (2.0, 128)):
        a = log_det_converged(PII(x=1.0, field=shared), s)
        b = log_det_converged(PII(x=1.0, field=PsiField(x=1.0, hm=hm)), s)
        assert a.n == b.n == n
        assert (a.log_det.hi, a.log_det.lo) == (b.log_det.hi, b.log_det.lo)


def test_march_tolerance_bias_is_below_the_ladder_floor(hm):
    # The march's own error falls in proportion to tol, so tightening it
    # from the default to 1e-14 moves the n = 256 value at (1, 2.0), the
    # largest log det on the grid, by no more than the binary64 assembly's
    # own wander there (about 3e-8 as tol goes 1e-11 ... 1e-15).
    vals = [log_det(PII(x=1.0, field=PsiField(x=1.0, hm=hm, tol=tol)), 2.0, 256).log_det
            for tol in (PsiField.tol, 1e-14)]
    assert abs(float(vals[0]) - float(vals[1])) <= 1e-7


def test_pii_ladders_converge(hm):
    unconverged = []
    for x in (-1.0, 0.0, 1.0):
        for s in (1.6, 1.8, 2.0):
            ev = log_det_converged(PII(x=x, field=PsiField(x=x, hm=hm)), s)
            if not (ev.converged and ev.n <= 128):
                unconverged.append((x, s, ev.n))
    assert unconverged == []


def test_pii_ladder_against_the_shooting_oracle(hm, shooting_hm, dop853_columns):
    # The oracle shares only the kernel assembly and the elimination with
    # the ladder: it runs at n = 256 on the DOP853 shooting profile, with
    # DOP853 columns put straight into its field's cache.  At (1, 2.0) the
    # n = 256 value itself wanders by ~3e-8 with the march tol, the floor
    # of the binary64 assembly, hence the looser bound there.
    errors = {}
    for x, s in ((0.0, 1.0), (0.0, 1.8), (1.0, 2.0), (-1.0, 2.0)):
        ev = log_det_converged(PII(x=x, field=PsiField(x=x, hm=hm)), s)
        oracle = PsiField(x=x, hm=shooting_hm)
        lams = s * gauss_legendre(256).nodes_f8
        psi11, psi21 = dop853_columns(oracle, lams)
        for lam, row in zip(lams, np.stack([psi11, psi21], axis=1)):
            oracle.cache[float(lam)] = row
        want = log_det(PII(x=x, field=oracle), s, 256)
        assert len(oracle.cache) == 256
        errors[x, s] = abs(float(ev.log_det) - float(want.log_det))
    assert errors[0.0, 1.0] <= 1e-8
    assert errors[0.0, 1.8] <= 2e-10
    assert errors[-1.0, 2.0] <= 1e-9
    assert errors[1.0, 2.0] <= 1e-7


def test_pii_ladder_eliminates_only_the_rungs_it_needs(hm, monkeypatch):
    sizes = []
    lu = gapdet.fredholm.log_det_lu

    def recording(m):
        sizes.append(m.shape[0])
        return lu(m)

    monkeypatch.setattr(gapdet.fredholm, "log_det_lu", recording)
    log_det_converged(PII(x=0.0, field=PsiField(x=0.0, hm=hm)), 1.8)
    assert sizes == [32, 64]


def test_trust_band_edge_still_converges_for_trig():
    ev = log_det_converged(CubicSine(t=1.0, x=1.0), 2.1)
    assert ev.converged and ev.n <= 400


def test_beyond_the_trust_band_fails_loudly_or_flags():
    # At s = 2.3 the true determinant is ~1e-57, far below what binary64
    # assembly can represent; the evaluation must not return a confident
    # wrong answer.
    try:
        ev = log_det_converged(CubicSine(t=1.0, x=1.0), 2.3)
    except DetIntegrityError:
        return
    assert (not ev.converged) or float(ev.log_det) < -100.0


def _numpy_nystrom_log_det(t: float, x: float, s: float, n: int) -> float:
    # Independent of gapdet: numpy's Gauss-Legendre rule, the cubic-sine
    # kernel written from its definition sin(phase)/(pi (lam - mu)) with the
    # diagonal limit (4 t lam^2 + x)/pi, and LAPACK's slogdet.
    nodes, weights = np.polynomial.legendre.leggauss(n)
    lam, w = s * nodes, s * weights
    d = lam[:, None] - lam[None, :]
    phase = (4.0 / 3.0) * t * (lam[:, None] ** 3 - lam[None, :] ** 3) + x * d
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.sin(phase) / (np.pi * d)
    k[np.diag_indices(n)] = (4.0 * t * lam**2 + x) / np.pi
    sq = np.sqrt(w)
    sign, logabs = np.linalg.slogdet(np.eye(n) - sq[:, None] * k * sq[None, :])
    assert sign == 1.0
    return float(logabs)


def test_under_resolved_lower_rung_is_skipped():
    # At (x, s) = (2, 2.2) the n = 32 determinant leaves (0, 1] while the
    # rungs above it resolve; the ladder must go on to them, not raise.
    spec = CubicSine(t=1.0, x=2.0)
    with pytest.raises(DetIntegrityError):
        log_det(spec, 2.2, 32)
    ev = log_det_converged(spec, 2.2)
    assert ev.n == 256 and not ev.converged
    top = log_det(spec, 2.2, 256)
    assert ev.log_det.hi == top.log_det.hi and ev.log_det.lo == top.log_det.lo
    # lambda_min of I - K is 4.1e-11 here, so the binary64 floor is
    # eps / lambda_min = 5.4e-6; the two evaluations differ by ~1.4e-6.
    assert abs(float(ev.log_det) - _numpy_nystrom_log_det(1.0, 2.0, 2.2, 256)) <= 1e-5


def test_top_rung_failure_still_raises(monkeypatch):
    real = gapdet.fredholm.log_det

    def failing_at_the_top(spec, s, n):
        if n == 256:
            raise DetIntegrityError("forced at the top rung")
        return real(spec, s, n)

    monkeypatch.setattr(gapdet.fredholm, "log_det", failing_at_the_top)
    with pytest.raises(DetIntegrityError, match="top rung"):
        log_det_converged(CubicSine(t=1.0, x=2.0), 2.2)


# --- derivatives --------------------------------------------------------------


def test_interval_derivative_matches_trace_expansion():
    # d/ds log det = -2 K(s,s) - (4s) * mean of K(s,.)^2 to second order;
    # for the sine kernel at s = 0.01 this is -2x/pi - 4s(x/pi)^2.
    got = dlogdet_ds(Sine(x=1.0), 0.01)
    want = -2.0 / math.pi - 4.0 * 0.01 / math.pi**2
    assert abs(got - want) <= 1e-3


def test_interval_derivative_is_stable_under_h_halving():
    a = dlogdet_ds(Sine(x=1.0), 0.5, h=1e-3)
    b = dlogdet_ds(Sine(x=1.0), 0.5, h=5e-4)
    assert abs(a - b) <= 1e-4


def test_parameter_derivative_small_interval():
    got = dlogdet_dx(Sine(x=1.0), 0.01)
    assert abs(got - (-2.0 * 0.01 / math.pi)) <= 1e-4


def test_parameter_derivative_zero_t_matches_sine_bitwise():
    a = dlogdet_dx(CubicSine(t=0.0, x=1.0), 0.5)
    b = dlogdet_dx(Sine(x=1.0), 0.5)
    assert a == b


def test_step_validation():
    with pytest.raises(ValueError):
        dlogdet_ds(Sine(x=1.0), 0.5, h=2e-3)
    with pytest.raises(ValueError):
        dlogdet_ds(Sine(x=1.0), 0.5, h=0.0)
    with pytest.raises(ValueError):
        dlogdet_ds(Sine(x=1.0), 0.0005, h=1e-3)
    # the x-derivative has no s - h constraint
    dlogdet_dx(Sine(x=1.0), 0.0005, h=1e-4)


def test_argument_validation(hm):
    with pytest.raises(ValueError):
        log_det(Sine(x=1.0), 1.0, 7)
    with pytest.raises(ValueError):
        log_det(Sine(x=1.0), 1.0, 401)
    with pytest.raises(ValueError):
        log_det(Sine(x=1.0), -0.1, 32)
    with pytest.raises(ValueError):
        log_det(Sine(x=1.0), 8.5, 32)
    with pytest.raises(ValueError):
        log_det(CubicSine(t=1.0, x=1.0), 2.5, 32)
    f = PsiField(x=0.0, hm=hm)
    with pytest.raises(ValueError):
        log_det(PII(x=0.0, field=f), 2.5, 32)
    # zero-t follows the wide trig cap
    log_det(CubicSine(t=0.0, x=1.0), 7.0, 32)


def test_nan_log_det_fails_the_integrity_check(monkeypatch):
    nan = ExtendedReal(float("nan"))
    monkeypatch.setattr(
        gapdet.fredholm, "log_det_lu", lambda m: LogDetResult(nan, 1, ExtendedReal(1.0))
    )
    with pytest.raises(DetIntegrityError):
        log_det(Sine(x=1.0), 1.0, 32)
