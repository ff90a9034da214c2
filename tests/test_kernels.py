"""Kernel evaluation: the two trig kernels and the rank-structured one."""

import math

import numpy as np
import pytest

import gapdet.psi
from gapdet.kernels import kernel_dx_factors
from gapdet import (
    CubicSine,
    KernelIntegrityError,
    PII,
    PsiField,
    Sine,
    gauss_legendre,
    kernel_matrix,
    psi_columns,
)


def entry(spec, lam, mu=None):
    """K(lam, mu) read off ``kernel_matrix``; K(lam, lam) when mu is None."""
    if mu is None:
        return float(kernel_matrix(spec, [lam])[0, 0])
    return float(kernel_matrix(spec, [lam, mu])[0, 1])


@pytest.fixture(scope="module")
def pii1(hm):
    return PII(x=1.0, field=PsiField(x=1.0, hm=hm))


def test_sine_closed_form():
    s = Sine(x=2.0)
    for a, b in ((0.3, -0.9), (1.1, 1.7), (-2.0, 0.0)):
        want = math.sin((a - b) * 2.0) / (math.pi * (a - b))
        assert abs(entry(s, a, b) - want) <= 1e-15
    assert entry(s, 0.7) == 2.0 / math.pi


def test_cubic_phase_closed_form():
    s = CubicSine(t=0.5, x=1.0)
    a, b = 0.8, -0.3
    phase = (a - b) * ((4.0 / 3.0) * 0.5 * (a * a + b * b + a * b) + 1.0)
    want = math.sin(phase) / (math.pi * (a - b))
    assert abs(entry(s, a, b) - want) <= 1e-14
    want_diag = (4.0 * 0.5 * 1.2**2 + 1.0) / math.pi
    assert abs(entry(s, 1.2) - want_diag) <= 1e-15


def test_kernels_are_symmetric_bitwise():
    for spec in (Sine(x=1.0), CubicSine(t=0.7, x=-1.0)):
        for a, b in ((0.4, 1.9), (-1.2, 0.05)):
            assert entry(spec, a, b) == entry(spec, b, a)


def test_kernels_are_centrosymmetric_bitwise(hm):
    # Every kernel is even, K(-a, -b) = K(a, b), and on mirrored nodes the
    # matrix keeps it exactly off its diagonal, which the determinant's
    # even/odd fold relies on; odd n and near-diagonal pairs included.  The
    # factor G of dK/dx has an even column 0 and an odd column 1.
    specs = (Sine(x=1.0), CubicSine(t=1.0, x=1.0), CubicSine(t=0.3, x=2.0),
             PII(x=1.0, field=PsiField(x=1.0, hm=hm)),
             PII(x=-4.0, field=PsiField(x=-4.0, hm=hm)))
    for spec in specs:
        for s, n in ((2.0, 32), (2.0, 33), (2.4, 64), (1e-5, 64)):
            pts = s * gauss_legendre(n).nodes_f8
            k = kernel_matrix(spec, pts)
            off = ~np.eye(n, dtype=bool)
            assert np.array_equal(k[off], k[::-1, ::-1][off])
            g = kernel_dx_factors(spec, pts)
            assert np.array_equal(g[:, 0], g[::-1, 0])
            assert np.array_equal(g[:, 1], -g[::-1, 1])


def test_zero_t_collapses_to_the_plain_sine_kernel():
    # Sine is the t = 0 CubicSine, so equality is exact, not approximate.
    s = Sine(x=1.3)
    assert isinstance(s, CubicSine) and s.t == 0.0
    c = CubicSine(t=0.0, x=1.3)
    for a, b in ((0.2, -0.7), (1.5, 1.5000001), (-2.0, 2.0)):
        assert entry(c, a, b) == entry(s, a, b)
    xs = np.linspace(-2.0, 2.0, 21)
    assert np.array_equal(kernel_matrix(c, xs), kernel_matrix(s, xs))


def test_near_diagonal_switch_is_seamless():
    # Straddle the Taylor switch with a +-1e-13 relative nudge.
    for spec in (Sine(x=1.0), CubicSine(t=1.0, x=1.0)):
        lam = 0.6
        below = entry(spec, lam, lam - 1e-6 * (1 - 1e-13))
        above = entry(spec, lam, lam - 1e-6 * (1 + 1e-13))
        assert abs(below - above) <= 1e-9


def test_diagonal_limit_matches_nearby_evaluation():
    # Inside the switch radius the value is taken at the pair midpoint, so
    # that is the diagonal point to compare against.
    for spec in (Sine(x=0.5), CubicSine(t=0.9, x=2.0)):
        lam = -0.8
        near = entry(spec, lam, lam - 1e-7)
        assert abs(near - entry(spec, lam - 5e-8)) <= 1e-12
        assert abs(near - entry(spec, lam)) <= 1e-6


def test_matrix_equals_scalar_grid_for_trig():
    # Oracle: the closed form, written out here with the naive cubic phase.
    t, x = 1.0, 1.0
    spec = CubicSine(t=t, x=x)
    xs = np.linspace(-1.0, 1.0, 9)
    k = kernel_matrix(spec, xs)
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            if i == j:
                want = (4.0 * t * a * a + x) / math.pi
            else:
                phase = (4.0 / 3.0) * t * (a**3 - b**3) + x * (a - b)
                want = math.sin(phase) / (math.pi * (a - b))
            assert abs(k[i, j] - want) <= 1e-14


# --- the rank-structured kernel ----------------------------------------------


def test_rank_structured_matrix_is_real_and_symmetric(pii1):
    xs = np.linspace(-1.5, 1.5, 12)
    k = kernel_matrix(pii1, xs)
    assert k.dtype == np.float64
    assert np.array_equal(k, k.T)


def test_rank_structured_matrix_matches_scalar_evaluation(pii1):
    # Oracles: the defining quotient of the columns off the diagonal, and
    # centered differences of the columns on it.
    xs = np.array([-1.0, -0.2, 0.6, 1.3])
    h = 1e-4
    k = kernel_matrix(pii1, xs)
    for i, a in enumerate(xs):
        ca = psi_columns(pii1.field, [float(a)])[0]
        for j, b in enumerate(xs):
            if i == j:
                hi = psi_columns(pii1.field, [float(a) + h])[0]
                lo = psi_columns(pii1.field, [float(a) - h])[0]
                d11 = (hi[0] - lo[0]) / (2 * h)
                d21 = (hi[1] - lo[1]) / (2 * h)
                want = (d21 * ca[0] - d11 * ca[1]) / (2 * math.pi)
                tol = 1e-6
            else:
                cb = psi_columns(pii1.field, [float(b)])[0]
                want = (ca[1] * cb[0] - cb[1] * ca[0]) / (2 * math.pi * (a - b))
                tol = 1e-12
            assert abs(want.imag) <= 1e-7
            assert abs(k[i, j] - want.real) <= tol


def test_near_diagonal_entries_march_in_one_batch(hm, monkeypatch):
    # Nodes of 1e-5 * GL(64) sit closer than the 1e-6 switch radius, so many
    # off-diagonal pairs take the diagonal value at their midpoint; all
    # those midpoints go into one march after the nodes' own.  Only |lambda|
    # marches: 32 nodes, and 99 of the 197 midpoints (0 and 98 mirror pairs).
    marches = []
    march = gapdet.psi._march

    def counting(field_, lams):
        marches.append(len(lams))
        return march(field_, lams)

    monkeypatch.setattr(gapdet.psi, "_march", counting)
    spec = PII(x=0.0, field=PsiField(x=0.0, hm=hm))
    pts = 1e-5 * gauss_legendre(64).nodes_f8
    k = kernel_matrix(spec, pts)
    stray = (np.abs(pts[:, None] - pts[None, :]) < 1e-6) & ~np.eye(64, dtype=bool)
    mids = 0.5 * (pts[:, None] + pts[None, :])
    assert marches == [32, len(np.unique(np.abs(mids[stray])))] == [32, 99]
    assert np.array_equal(k, k.T)
    for i, j in zip(*np.nonzero(stray)):
        assert abs(k[i, j] - entry(spec, float(mids[i, j]))) <= 1e-12


def test_rank_structured_values_are_bounded_with_positive_diagonal(hm):
    for x in (-2.0, 0.0, 3.0, 8.0):
        spec = PII(x=x, field=PsiField(x=x, hm=hm))
        for lam in np.linspace(-2.0, 2.0, 7):
            assert entry(spec, float(lam)) > 0.0
            assert abs(entry(spec, float(lam), 0.31)) <= 10.0


def test_zero_potential_reduces_to_cubic_trig(free_hm):
    f = PsiField(x=1.0, hm=free_hm)
    free = PII(x=1.0, field=f)
    trig = CubicSine(t=1.0, x=1.0)
    for a, b in ((-1.0, 0.2), (0.7, 1.4), (2.0, -0.5)):
        assert abs(entry(free, a, b) - entry(trig, a, b)) <= 1e-9
    for lam in (-1.0, 0.0, 1.5):
        assert abs(entry(free, lam) - entry(trig, lam)) <= 1e-9


def test_large_x_agreement_with_cubic_trig(hm):
    # At x=8 the potential is ~1e-7, so the two kernels agree to ~1e-8.
    spec = PII(x=8.0, field=PsiField(x=8.0, hm=hm))
    trig = CubicSine(t=1.0, x=8.0)
    pts = np.linspace(-1.0, 1.0, 5)
    kp = kernel_matrix(spec, pts)
    kt = kernel_matrix(trig, pts)
    assert np.max(np.abs(kp - kt)) <= 1e-4
    assert abs(entry(spec, 0.0) - 8.0 / math.pi) <= 1e-4


def test_parameter_validation(hm):
    with pytest.raises(ValueError):
        CubicSine(t=1.5, x=0.0)
    with pytest.raises(ValueError):
        CubicSine(t=-0.1, x=0.0)
    with pytest.raises(ValueError):
        Sine(x=math.nan)
    with pytest.raises(ValueError):
        CubicSine(1.0, math.inf)
    f = PsiField(x=0.0, hm=hm)
    with pytest.raises(ValueError):
        PII(x=1.0, field=f)
    # a point that is not finite, which PII refuses through its columns
    for spec in (Sine(x=1.0), CubicSine(t=1.0, x=1.0), PII(x=0.0, field=f)):
        for bad in (math.nan, math.inf, -math.inf):
            for assemble in (kernel_matrix, kernel_dx_factors):
                with pytest.raises(ValueError):
                    assemble(spec, [bad, 0.5])


def test_poisoned_cache_is_caught(hm):
    f = PsiField(x=1.0, hm=hm)
    psi_columns(f, [0.5])
    spec = PII(x=1.0, field=f)
    # a NaN psi11, the one value the cache stores
    f.cache[0.5] = complex(np.nan, 0.0)
    with pytest.raises(KernelIntegrityError):
        entry(spec, 0.5, 1.0)
    with pytest.raises(KernelIntegrityError):
        kernel_matrix(spec, np.array([0.5, 1.0, 1.5]))
    # the poisoned column as the midpoint of a near-diagonal pair, whose
    # neighbours are clean
    with pytest.raises(KernelIntegrityError, match="diagonal"):
        kernel_matrix(spec, np.array([0.5 - 2e-7, 0.5 + 2e-7]))


def test_x_derivative_matches_a_difference_in_x(hm):
    # Nodes of a 12-point rule on (-2, 2), plus a pair inside the switch
    # radius; a centered difference at h = 1e-4 is good to ~1e-8.
    pts = np.concatenate([2.0 * gauss_legendre(12).nodes_f8, [0.3, 0.3 + 1e-7]])
    h = 1e-4
    makers = (
        lambda x: Sine(x=x),
        lambda x: CubicSine(t=1.0, x=x),
        lambda x: PII(x=x, field=PsiField(x=x, hm=hm)),
    )
    for make in makers:
        for x in (-1.0, 1.0):
            g = kernel_dx_factors(make(x), pts)
            fd = (kernel_matrix(make(x + h), pts) - kernel_matrix(make(x - h), pts)) / (2.0 * h)
            assert g.shape == (len(pts), 2)
            assert np.max(np.abs(g @ g.T - fd)) <= 3e-8


def test_x_derivative_zero_t_is_the_sine_kernels_bitwise():
    pts = np.linspace(-2.0, 2.0, 21)
    g = kernel_dx_factors(CubicSine(t=0.0, x=1.3), pts)
    assert np.array_equal(g, kernel_dx_factors(Sine(x=1.3), pts))
    assert np.max(np.abs(np.diagonal(g @ g.T) - 1.0 / math.pi)) <= 1e-16


def test_poisoned_cache_is_caught_by_the_x_derivative(hm):
    f = PsiField(x=1.0, hm=hm)
    psi_columns(f, [0.5])
    f.cache[0.5] = complex(np.nan, 0.0)
    with pytest.raises(KernelIntegrityError, match="x-derivative"):
        kernel_dx_factors(PII(x=1.0, field=f), np.array([0.5, 1.0]))
