"""Determinant evaluation on symmetric intervals, plus the log-derivatives."""

import dataclasses
import math
import tracemalloc

import mpmath
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
    kernel_matrix,
    log_det,
    log_det_converged,
    solve_hm,
)
from gapdet.fredholm import _ds_rung, _dx_rung, _fold, _fold_rows, _nystrom, _quad
from gapdet.kernels import kernel_dx_factors
from gapdet.mpnum import LogDetResult, log_det_lu
from oracles import dense_kernel_dx


def test_empty_interval_is_exact():
    ev = log_det(Sine(x=1.0), 0.0, 32)
    assert isinstance(ev, DetEvaluation)
    assert type(ev.log_det) is float and ev.log_det == 0.0
    assert ev.pivot_min == 1.0
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
        assert a.log_det == b.log_det
        assert a.pivot_min == b.pivot_min


def test_cubic_family_scales_onto_t_one():
    # lambda -> t^(-1/3) lambda takes CubicSine(t, x) on (-s, s) to
    # CubicSine(1, x t^(-1/3)) on (-s t^(1/3), s t^(1/3)), the identity that
    # lets verify judge theorem2, logsasy and logxasy at t < 1: log det is
    # the same, d/dx is t^(-1/3) times and d/ds t^(1/3) times the slope
    # there.  Measured gaps: 1.6e-13, 2.2e-16 and 0 for log det; relative,
    # at most 2.7e-14 for d/dx and 4.2e-14 for d/ds.  Not at (0.973, 1.996,
    # 2.034): there log det is -87 and the gap (4.4e-9 at n = 128) measures
    # how ill-conditioned M is.
    for t, x, s in ((0.5, 1.0, 2.0), (0.125, -1.0, 2.4), (0.3, 0.0, 1.0)):
        r = t ** (1 / 3)
        spec, spec1 = CubicSine(t=t, x=x), CubicSine(t=1.0, x=x / r)
        for n in (64, 128):
            assert abs(log_det(spec, s, n).log_det - log_det(spec1, s * r, n).log_det) <= 1e-12
            for rung, scale in ((_dx_rung, 1.0 / r), (_ds_rung, r)):
                a, b = rung(spec, s, n), scale * rung(spec1, s * r, n)
                assert abs(a - b) <= 1e-12 * abs(a)


def test_top_rung_peak_memory_stays_small():
    # Assembly and elimination at n = 256 hold a few n x n arrays (0.5 MB
    # each) at a time, and the elimination only two n/2 x n/2 blocks: the
    # peak is about 1.78 MB (2.74 MB when M was eliminated whole, and
    # about 7.3 MB with a whole-matrix update).
    spec, s = CubicSine(t=0.929, x=1.607), 2.074
    log_det(spec, s, 256)                       # build the rule outside the window
    tracemalloc.start()
    try:
        log_det(spec, s, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_pii_top_rung_peak_memory_stays_small(hm):
    # The PII assembly takes its near-diagonal pairs from the pair list, as
    # the trig one does, and holds no n x n midpoint array or masked copy:
    # the peak is about 2.25 MB (2.84 MB with them).
    spec = PII(x=1.0, field=PsiField(x=1.0, hm=hm))
    log_det(spec, 2.0, 256)                     # march and rule outside the window
    tracemalloc.start()
    try:
        log_det(spec, 2.0, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("window, bound", [((), 1.5e6), ((-8.0, 40.0, 1e-3), 6e6)])
def test_solve_hm_peak_memory_stays_small(hm, window, bound):
    # The Airy rule runs over blocks of 256 points and the Newton sweep over
    # slices of 1,024 rows, so the solve holds a few grid-long arrays and no
    # (points, 41) ones: the peak is about 0.87 MB on the default window and
    # 3.7 MB on (-8, 40, 1e-3) (5.34 and 54.7 MB with the whole grid in one
    # Airy call and the sweep on grid-long lists).  The hm fixture has
    # solved once already, outside the window.
    tracemalloc.start()
    try:
        solve_hm(*window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def _unfolded_log_det(spec, s, n):
    # log det of M = I - W^1/2 K W^1/2 eliminated whole, without the
    # even/odd split; the smallest eigenvalue of M; and the resolution of
    # the fold, eps sum |B^-1| |B| over its blocks B with eps = 2^-53: each
    # block entry is one binary64 sum, rounded by up to eps relative, and
    # to first order that moves log det B by at most this much
    rule = gauss_legendre(n)
    sq = np.sqrt(s * rule.weights_f8)
    m = np.eye(n) - (sq[:, None] * sq[None, :]) * kernel_matrix(spec, s * rule.nodes_f8)
    res = log_det_lu(m[None])[0]
    fold = 2.0 ** -53 * sum(np.sum(np.abs(np.linalg.inv(b)) * np.abs(b)) for b in _fold(m))
    return res.log_abs_det[0] + res.log_abs_det[1], np.linalg.eigvalsh(m)[0], fold


def test_folded_blocks_give_the_whole_matrix_determinant(hm):
    # det M = det(even block) det(odd block) exactly, and both eliminations
    # carry far more digits than M, so the two log dets differ by the
    # fold's rounding, bounded by its resolution: 3e-13 to 4e-13 for the
    # sine kernel, 1.0e-9 to 1.4e-9 for the other two.  Measured: at most
    # 0.12 of it, odd n (the middle node in the even block) included.  The
    # folded pivots are the blocks' own, so pivot_min stays positive and
    # never below lambda_min(M).
    cases = ((Sine(x=1.0), 5.0), (CubicSine(t=1.0, x=1.0), 2.0),
             (PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0))
    for spec, s in cases:
        for n in (33, 48, 49, 64, 65, 128):
            ev = log_det(spec, s, n)
            want, lam_min, fold = _unfolded_log_det(spec, s, n)
            assert abs(ev.log_det - want) <= fold
            assert 0.0 < lam_min <= ev.pivot_min * (1.0 + 1e-12)
    # log det -5.1e-11: with M_ii on the binary64 grid, the diagonals
    # M_ii +- M_i,-i of the two blocks round by equal and opposite amounts,
    # which cancel in their product to first order (7e-28 at n = 32 against
    # 40-digit determinants of M and of the blocks)
    spec = PII(x=-8.0, field=PsiField(x=-8.0, hm=hm))
    for n in (33, 48, 49, 64, 65, 128):
        want, _, _ = _unfolded_log_det(spec, 0.5, n)
        assert abs(log_det(spec, 0.5, n).log_det - want) <= 1e-8 * abs(want)


def test_pii_ladder_marches_each_rung_when_it_reaches_it(hm, monkeypatch):
    # The first two rungs, which the first gap compares, are marched in one
    # batch before the first rung; a higher rung is marched, in one batch,
    # only when the ladder reaches it.  Only the non-negative nodes march:
    # a negative node reads the conjugate of its mirror's column.
    marches = []
    march = gapdet.psi._march

    def counting(field_, lams):
        marches.append(len(lams))
        return march(field_, lams)

    monkeypatch.setattr(gapdet.psi, "_march", counting)
    f = PsiField(x=0.0, hm=hm)
    assert log_det_converged(PII(x=0.0, field=f), 1.0).n == 64
    assert marches == [16 + 32]
    assert len(f.cache) == 48
    marches.clear()
    assert log_det_converged(PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0).n == 128
    assert marches == [16 + 32, 64]
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
        assert a.log_det == b.log_det


def test_a_field_shared_across_s_holds_one_ladders_columns(hm):
    # No ladder reads another s's columns, so each starts on an empty cache:
    # after a sweep over seven s the field holds at most the 112 columns of
    # a ladder that stops at n = 128 (its non-negative nodes), not the sum
    # over the sweep.
    shared = PsiField(x=1.0, hm=hm)
    for s in (1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0):
        log_det_converged(PII(x=1.0, field=shared), s)
        assert len(shared.cache) <= 112


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
    # DOP853 columns at the non-negative nodes put straight into its field's
    # cache (a negative node reads its mirror's conjugate).  At (1, 2.0) the
    # n = 256 value itself wanders by ~3e-8 with the march tol, the floor
    # of the binary64 assembly, hence the looser bound there.
    errors = {}
    for x, s in ((0.0, 1.0), (0.0, 1.8), (1.0, 2.0), (-1.0, 2.0)):
        ev = log_det_converged(PII(x=x, field=PsiField(x=x, hm=hm)), s)
        oracle = PsiField(x=x, hm=shooting_hm)
        lams = s * gauss_legendre(256).nodes_f8[128:]
        psi11 = dop853_columns(oracle, lams)[0]
        oracle.cache.update(zip(lams.tolist(), psi11))
        want = log_det(PII(x=x, field=oracle), s, 256)
        assert len(oracle.cache) == 128
        errors[x, s] = abs(float(ev.log_det) - float(want.log_det))
    assert errors[0.0, 1.0] <= 1e-8
    assert errors[0.0, 1.8] <= 2e-10
    assert errors[-1.0, 2.0] <= 1e-9
    assert errors[1.0, 2.0] <= 1e-7


def test_pii_ladders_left_of_x_minus_5_against_dop853_columns(hm, dop853_columns):
    # Left of x = -5 the march carries a decaying column while its transfer
    # matrix grows, so psi_det drifts from 1 (1.7e-9 at x = -7).  What that
    # costs a ladder is measured here at its own n, with DOP853 columns at
    # the non-negative nodes put into a fresh field's cache on the same
    # profile: 6.6e-12 at (-4, 2.0), 1.6e-11 at (-6, 2.0) and 4.7e-11 at
    # (-8, 2.4).  At (-8, 0.5) log det is -5.1e-11 and M = I - O(1e-12), so
    # to first order log det sums the logs of M's diagonal, which each side
    # rounds to binary64 once, half an ulp of 2^-53 each: the two differ by
    # up to n 2^-53 (7.1e-15 at n = 64) whatever their columns, in steps of
    # 1.1e-16 (6.7e-16 measured; 2.2e-16 to 1.1e-15 on seven re-solves with
    # the left boundary value moved by 5e-13 to 1e-11 relative).
    errors, ns = {}, {}
    for x, s in ((-4.0, 2.0), (-6.0, 2.0), (-8.0, 2.4), (-8.0, 0.5)):
        ev = log_det_converged(PII(x=x, field=PsiField(x=x, hm=hm)), s)
        assert ev.converged
        ns[x, s] = ev.n
        oracle = PsiField(x=x, hm=hm)
        lams = s * gauss_legendre(ev.n).nodes_f8[ev.n // 2:]
        psi11 = dop853_columns(oracle, lams)[0]
        oracle.cache.update(zip(lams.tolist(), psi11))
        want = log_det(PII(x=x, field=oracle), s, ev.n).log_det
        assert len(oracle.cache) == ev.n // 2
        errors[x, s] = abs(ev.log_det - want)
    assert errors[-4.0, 2.0] <= 1e-9
    assert errors[-6.0, 2.0] <= 1e-9
    assert errors[-8.0, 2.4] <= 1e-9
    assert errors[-8.0, 0.5] <= ns[-8.0, 0.5] * 2.0 ** -53


def test_pii_ladder_eliminates_only_the_rungs_it_needs(hm, monkeypatch):
    sizes = []
    lu = gapdet.fredholm.log_det_lu

    def recording(m):
        sizes.append(m.shape)
        return lu(m)

    monkeypatch.setattr(gapdet.fredholm, "log_det_lu", recording)
    log_det_converged(PII(x=0.0, field=PsiField(x=0.0, hm=hm)), 1.8)
    # each rung is eliminated as one stack of its even and odd blocks
    assert sizes == [(2, 16, 16), (2, 32, 32)]


def test_trust_band_edge_still_converges_for_trig():
    ev = log_det_converged(CubicSine(t=1.0, x=1.0), 2.1)
    assert ev.converged and ev.n <= 400


def test_indefinite_rungs_are_refused(hm):
    # At s = 2.4 the n = 32 rungs are under-resolved and their M has a
    # negative eigenvalue (-9.8e-7, -6.7e-8 and -9.8e-7), in both of its
    # folded blocks; the error names the rung, and the ladder skips it like
    # any other that fails.  At n = 33 the odd block is bordered to the
    # even block's order, and the rung is refused as well.
    specs = (CubicSine(t=1.0, x=1.0), PII(x=0.0, field=PsiField(x=0.0, hm=hm)),
             PII(x=1.0, field=PsiField(x=1.0, hm=hm)))
    for spec, n in [(spec, 32) for spec in specs] + [(specs[0], 33), (specs[2], 33)]:
        with pytest.raises(DetIntegrityError,
                           match=f"^I - K not positive definite at s = 2.4, n = {n}$"):
            log_det(spec, 2.4, n)
    ev = log_det_converged(specs[0], 2.4)
    assert ev.n == 256 and not ev.converged
    assert ev.log_det == log_det(specs[0], 2.4, 256).log_det


def _recorded_rungs(mp, name):
    """Wrap the rung a ladder calls by its module name and return the list
    of (n, refused) pairs it records, in ladder order."""
    seen = []
    real = getattr(gapdet.fredholm, name)

    def recording(spec, s, n):
        try:
            val = real(spec, s, n)
        except DetIntegrityError:
            seen.append((n, True))
            raise
        seen.append((n, False))
        return val

    mp.setattr(gapdet.fredholm, name, recording)
    return seen


def test_indefinite_slope_rungs_are_refused(hm, monkeypatch):
    # The slopes' quadratic forms come from a Cholesky factor of each folded
    # block, so the rungs the determinant refuses give no slope either; an
    # LU solve alone returns d/ds -305.65 and d/dx -26.19 for CubicSine(1, 1)
    # there, against -376.50 and -38.96 at n = 64.  The determinant ladder
    # and both slope ladders skip the n = 32 rung and refuse no other.  M =
    # I + J diag(d, reversed) folds to the blocks I + diag(d) and I - diag(d):
    # a negative pivot late in the even block, then early in the odd one.
    for d in ((0.0, 0.0, 0.0, -2.0), (0.0, 2.0, 0.0, 0.0)):
        m = np.eye(8) + np.fliplr(np.diag(np.concatenate([d[::-1], d])))
        with pytest.raises(DetIntegrityError,
                           match="^I - K not positive definite at s = 1, n = 8$"):
            _quad(_fold(m), np.ones((8, 1)), 1, 8)
    specs = (CubicSine(t=1.0, x=1.0), PII(x=0.0, field=PsiField(x=0.0, hm=hm)),
             PII(x=1.0, field=PsiField(x=1.0, hm=hm)))
    for spec in specs:
        for rung in (gapdet.fredholm._ds_rung, gapdet.fredholm._dx_rung):
            with pytest.raises(DetIntegrityError,
                               match="^I - K not positive definite at s = 2.4, n = 32$"):
                rung(spec, 2.4, 32)
        for name, ladder in (("log_det", log_det_converged), ("_ds_rung", dlogdet_ds),
                             ("_dx_rung", dlogdet_dx)):
            with monkeypatch.context() as mp:
                seen = _recorded_rungs(mp, name)
                ladder(spec, 2.4)
            assert seen[0] == (32, True) and len(seen) >= 3
            assert not any(refused for _, refused in seen[1:])


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
    assert ev.log_det == top.log_det
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


def test_interval_derivative_is_the_limit_of_centered_differences():
    # A centered difference of the determinant misses the slope by h^2/6
    # times the third derivative, plus O(h^4), so its gap to the analytic
    # slope quarters as h halves; at s = 0.5 that gap is ~1e-7, far above
    # the difference's rounding.
    spec = Sine(x=1.0)
    got = dlogdet_ds(spec, 0.5)
    gaps = [float(log_det(spec, 0.5 + h, 64).log_det - log_det(spec, 0.5 - h, 64).log_det)
            / (2.0 * h) - got for h in (1e-3, 5e-4)]
    assert 1e-8 < abs(gaps[0]) < 1e-5
    assert abs(gaps[1] / gaps[0] - 0.25) <= 0.01


def test_parameter_derivative_small_interval():
    got = dlogdet_dx(Sine(x=1.0), 0.01)
    assert abs(got - (-2.0 * 0.01 / math.pi)) <= 1e-4


def test_parameter_derivative_zero_t_matches_sine_bitwise():
    a = dlogdet_dx(CubicSine(t=0.0, x=1.0), 0.5)
    b = dlogdet_dx(Sine(x=1.0), 0.5)
    assert a == b


def test_slope_domain(hm):
    # no difference step: no h to pass, any s the determinant takes, and
    # at s = 0 the interval slope is -2 K(0, 0)
    with pytest.raises(TypeError):
        dlogdet_ds(Sine(x=1.0), 0.5, h=1e-3)
    for slope in (dlogdet_ds, dlogdet_dx):
        with pytest.raises(ValueError):
            slope(Sine(x=1.0), -0.1)
        with pytest.raises(ValueError):
            slope(CubicSine(t=1.0, x=1.0), 2.5)
    assert dlogdet_ds(Sine(x=1.0), 0.0) == -2.0 / math.pi
    assert dlogdet_dx(Sine(x=1.0), 0.0) == 0.0
    assert abs(dlogdet_ds(Sine(x=1.0), 0.0005) - (-2.0 / math.pi)) <= 1e-3
    # the x-slope works up to the edge of the kernel's domain: x = -10 for PII
    edge = PII(x=-10.0, field=PsiField(x=-10.0, hm=hm))
    assert math.isfinite(dlogdet_dx(edge, 0.5))


def _richardson(f) -> float:
    """The h -> 0 limit of (f(h) - f(-h)) / 2h from h = 1e-3 and 5e-4."""
    d = [float(f(h) - f(-h)) / (2.0 * h) for h in (1e-3, 5e-4)]
    return (4.0 * d[1] - d[0]) / 3.0


def _slogdet_256(spec, s: float) -> float:
    r = gauss_legendre(256)
    sq = np.sqrt(s * r.weights_f8)
    k = kernel_matrix(spec, s * r.nodes_f8)
    sign, logabs = np.linalg.slogdet(np.eye(256) - (sq[:, None] * sq[None, :]) * k)
    assert sign == 1.0
    return float(logabs)


def _dd_256(spec, s: float) -> float:
    return log_det(spec, s, 256).log_det


# Analytic slope minus the Richardson oracle at n = 256, as measured:
#   (x, s)     PII ds   PII dx   CubicSine(t=1) ds  CubicSine(t=1) dx
#   (-1, 2.0)  5.2e-8   2.6e-8   1.4e-9             3.1e-10
#   ( 0, 1.6)  1.4e-10  6.6e-10  3.4e-11            4.1e-12
#   ( 0, 2.0)  9.0e-8   4.6e-8   9.1e-9             1.6e-10
#   ( 1, 1.6)  9.2e-10  2.0e-9   1.3e-10            4.5e-11
#   ( 1, 2.0)  7.2e-7   5.2e-6   2.4e-7             8.0e-8
# The oracle takes log det from slogdet, except for the CubicSine x-slope
# at (1, 2.0): I - K is nearly singular there, and slogdet's rounding moves
# that oracle by 3e-7 between n = 128 and 256 (it reads 3.2e-7 off), while
# the double-double elimination holds it within 1e-7.  The PII x-slope at
# (1, 2.0) is compared with fields at x +- h, which march on different
# grids; that limits the reference to a few 1e-6.
_ORACLE_POINTS = [
    pytest.param(-1.0, 2.0, marks=pytest.mark.slow),
    pytest.param(0.0, 1.6, marks=pytest.mark.slow),
    (0.0, 2.0),
    pytest.param(1.0, 1.6, marks=pytest.mark.slow),
    (1.0, 2.0),
]


@pytest.mark.parametrize("x, s", _ORACLE_POINTS)
def test_slopes_match_the_richardson_oracle(hm, x, s):
    def pii(x_):
        return PII(x=x_, field=PsiField(x=x_, hm=hm))

    spec, csin = pii(x), CubicSine(t=1.0, x=x)
    csin_dx_log_det = _dd_256 if (x, s) == (1.0, 2.0) else _slogdet_256
    cases = [
        ("PII ds", dlogdet_ds(pii(x), s),
         _richardson(lambda h: _slogdet_256(spec, s + h)), 2e-6),
        ("PII dx", dlogdet_dx(pii(x), s),
         _richardson(lambda h: _slogdet_256(pii(x + h), s)), 2e-5 if x > 0.0 else 2e-7),
        ("CubicSine ds", dlogdet_ds(csin, s),
         _richardson(lambda h: _slogdet_256(csin, s + h)), 2e-6),
        ("CubicSine dx", dlogdet_dx(csin, s),
         _richardson(lambda h: csin_dx_log_det(CubicSine(t=1.0, x=x + h), s)), 2e-7),
    ]
    bad = [f"{name}: {got!r} vs {want!r}" for name, got, want, tol in cases
           if not abs(got - want) <= tol]
    assert bad == []


def test_slope_noise_is_below_the_ladder_tolerance(hm):
    # One ulp up at every 7th node of the profile moves log det by ~1e-10.
    # A centered difference at h = 1e-3 turned that into 2.5e-8 in the
    # interval slope; the resolvent formulas do not amplify it.
    u = hm.u.copy()
    u[::7] = np.nextafter(u[::7], np.inf)
    nudged = dataclasses.replace(hm, u=u)

    def slopes(sol):
        return [slope(PII(x=1.0, field=PsiField(x=1.0, hm=sol)), 2.0)
                for slope in (dlogdet_ds, dlogdet_dx)]

    moves = [abs(a - b) for a, b in zip(slopes(hm), slopes(nudged))]
    assert max(moves) <= 1e-8


def test_the_x_slope_rung_matches_the_dense_trace(hm):
    # _dx_rung folds the rank-two factor of dK/dx; the reference is
    # -tr(M^-1 W^1/2 D W^1/2) with the n x n D of ``dense_kernel_dx`` and
    # the whole unfolded M, assembled from the rung's own K.  Worst case
    # 1.2e-10, CubicSine(1, 0) at n = 64.
    cases = ((CubicSine(t=1.0, x=1.0), 2.0), (CubicSine(t=1.0, x=0.0), 2.2),
             (PII(x=1.0, field=PsiField(x=1.0, hm=hm)), 2.0),
             (PII(x=-1.0, field=PsiField(x=-1.0, hm=hm)), 2.0))
    for spec, s in cases:
        for n in (64, 128, 256):
            _, xi, sq, k = _nystrom(spec, s, n)
            m = np.eye(n) - (sq[:, None] * sq[None, :]) * k
            d = (sq[:, None] * sq[None, :]) * dense_kernel_dx(spec, xi)
            want = -np.trace(np.linalg.solve(m, d))
            assert abs(_dx_rung(spec, s, n) - want) <= 1e-9 * abs(want)


def test_slope_quadratic_form_against_a_40_digit_solve():
    # The quadratic form of a d/dx rung, |L^-1 p|^2 over the Cholesky
    # factors of the two folded blocks, against an mpmath LU solve of the
    # same binary64 blocks at 40 digits, which shares no binary64 solve with
    # it.  CubicSine(1, 1) at s = 2.2, n = 64: lambda_min of M is 1.19e-9,
    # so the bound eps / lambda_min is 1.85e-7.  Measured 2.7e-9 (1.4e-9
    # for the binary64 LU solve the slopes used before).
    spec, s, n = CubicSine(t=1.0, x=1.0), 2.2, 64
    blocks, xi, sq, _ = _nystrom(spec, s, n)
    v = sq[:, None] * kernel_dx_factors(spec, xi)
    parts = _fold_rows(v)
    lam_min = min(np.linalg.eigvalsh(b)[0] for b in blocks)
    assert 1.1e-9 <= lam_min <= 1.3e-9
    with mpmath.workdps(40):
        want = mpmath.mpf(0)
        for block, part in zip(blocks, parts):
            a = mpmath.matrix(block.tolist())
            for col in part.T:
                p = mpmath.matrix(col.tolist())
                want += (p.T * mpmath.lu_solve(a, p))[0]
        want = float(want)
    assert abs(_quad(blocks, v, s, n) - want) <= np.finfo(float).eps / lam_min * abs(want)


def test_slopes_run_no_double_double_elimination(hm, monkeypatch):
    def refuse(m):
        raise AssertionError("a slope called log_det_lu")

    monkeypatch.setattr(gapdet.fredholm, "log_det_lu", refuse)
    for spec in (PII(x=0.0, field=PsiField(x=0.0, hm=hm)), CubicSine(t=1.0, x=1.0)):
        assert math.isfinite(dlogdet_ds(spec, 2.0))
        assert math.isfinite(dlogdet_dx(spec, 2.0))


def test_slope_rung_integrity(monkeypatch):
    # A solve that fails, or one that comes back non-finite, fails its rung;
    # failing at every rung, the top one raises.
    def singular(m, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "solve", singular)
        for slope in (dlogdet_ds, dlogdet_dx):
            with pytest.raises(DetIntegrityError, match="not positive definite"):
                slope(Sine(x=1.0), 0.5)
    monkeypatch.setattr(gapdet.fredholm, "kernel_matrix",
                        lambda spec, pts: np.full((len(pts), len(pts)), np.nan))
    for slope in (dlogdet_ds, dlogdet_dx):
        with pytest.raises(DetIntegrityError, match="not finite"):
            slope(Sine(x=1.0), 0.5)


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
    nan = float("nan")
    monkeypatch.setattr(
        gapdet.fredholm, "log_det_lu", lambda m: [LogDetResult((nan, 0.0), 1.0)] * len(m)
    )
    with pytest.raises(DetIntegrityError):
        log_det(Sine(x=1.0), 1.0, 32)
