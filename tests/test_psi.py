"""Column solves of the linear system underlying the rank-structured kernel."""

import math

import numpy as np
import pytest

import gapdet.psi
import oracles
from gapdet import PsiField, gauss_legendre, psi_columns, solve_hm
from gapdet.psi import _lambda_derivative
from gapdet.specfun import airy_ai
from oracles import psi_column_ray, psi_det

LAM_GRID = np.linspace(-4.0, 4.0, 17)


@pytest.fixture(scope="module")
def field0(hm):
    return PsiField(x=0.0, hm=hm)


@pytest.fixture(scope="module")
def field8(hm):
    return PsiField(x=8.0, hm=hm)


def test_zero_potential_reduces_to_pure_oscillation(free_hm):
    # On a zero profile the system decouples and the columns are exactly
    # (exp(-i theta), -i exp(+i theta)); at x = 12.5, where every march
    # starts, it takes no step at all.
    for f in (PsiField(x=1.0, hm=free_hm), PsiField(x=12.5, hm=free_hm)):
        for lam in (-3.0, -0.7, 0.0, 1.3, 4.0):
            c = psi_columns(f, [lam])[0]
            theta = (4.0 / 3.0) * lam**3 + f.x * lam
            assert abs(c[0] - np.exp(-1j * theta)) <= 1e-9
            assert abs(c[1] - (-1j) * np.exp(1j * theta)) <= 1e-9


def test_a_cached_column_is_the_marched_column(hm):
    # The cache holds psi11 at |lambda| as formed from the (p, q) pair
    # _march produced, bit for bit, and a negative lambda reads its
    # conjugate; an empty request still has two columns.
    lams = np.array([-2.5, -0.3, 0.0, 0.3, 1.7])
    mags = np.array([0.0, 0.3, 1.7, 2.5])
    f, g = PsiField(x=0.5, hm=hm), PsiField(x=0.5, hm=hm)
    p, q = gapdet.psi._march(g, mags)
    cubic = np.exp(1j * ((4.0 / 3.0) * mags ** 3))
    psi11 = (p * np.conj(cubic) - 1j * (q * cubic)) * np.exp(-1j * (0.5 * mags))
    cols = psi_columns(f, lams)[:, 0]
    assert sorted(f.cache) == mags.tolist()
    assert np.array_equal([f.cache[lam] for lam in mags.tolist()], psi11)
    assert np.array_equal(cols, [np.conj(psi11[3]), np.conj(psi11[1]), psi11[0],
                                 psi11[1], psi11[2]])
    assert psi_columns(f, []).shape == (0, 2)


def test_a_negative_lambda_reads_its_mirror(hm):
    # psi11(-lambda) = conj psi11(lambda) and psi21(-lambda) = -conj
    # psi21(lambda) hold bit for bit, since only |lambda| is marched, and a
    # march run at -lambda itself agrees to rounding.
    lams = np.concatenate([2.4 * gauss_legendre(64).nodes_f8[32:], LAM_GRID[8:]])
    for x in (-4.0, 0.0, 1.0):
        f = PsiField(x=x, hm=hm)
        cols, mirror = psi_columns(f, lams), psi_columns(f, -lams)
        assert len(f.cache) == len(lams)
        assert np.array_equal(mirror[:, 0], np.conj(cols[:, 0]))
        assert np.array_equal(mirror[:, 1], -np.conj(cols[:, 1]))
        p, q = gapdet.psi._march(f, -lams)
        cubic = np.exp(1j * ((4.0 / 3.0) * (-lams) ** 3))
        direct = (p * np.conj(cubic) - 1j * (q * cubic)) * np.exp(1j * (x * lams))
        assert np.max(np.abs(direct - mirror[:, 0])) <= 1e-14


def test_determinant_stays_unimodular(hm):
    for x in (-1.0, 0.0, 1.0, 5.0):
        f = PsiField(x=x, hm=hm)
        for lam in (-2.5, 0.0, 1.0, 3.0):
            assert abs(psi_det(f, lam) - 1.0) <= 1e-8


def test_determinant_is_unimodular_to_rounding(hm):
    # Every step matrix has the form [[p, q], [conj q, conj p]] with
    # |p|^2 - |q|^2 = 1 to rounding, so only rounding moves the determinant.
    for x in (-1.0, 0.0, 1.0, 5.0):
        f = PsiField(x=x, hm=hm)
        for lam in (-2.5, 0.0, 1.0, 3.0):
            assert abs(psi_det(f, lam) - 1.0) <= 1e-13


def test_determinant_loss_stays_small_right_of_minus_four(hm):
    # Rounding is amplified as much as the transfer matrix grows, which
    # happens where u^2 > lambda^2, more the further left: the loss reads
    # 3.5e-13 at x = -4 and 7.2e-12 at x = -5 (module docstring).  A march
    # change that widens it shows here.
    lams = np.linspace(0.0, 3.0, 31)
    for x in (-4.0, -3.0, -2.0, 0.0, 2.0, 4.0):
        f = PsiField(x=x, hm=hm)
        assert max(abs(psi_det(f, float(lam)) - 1.0) for lam in lams) <= 1e-12, x


def test_conjugation_pairing_holds_to_rounding(hm):
    # For real lambda the Lax pair locks psi21 = -i conj(psi11), and that
    # is how the second entry is formed, so the pairing holds bit for bit.
    for x in (0.0, 1.0):
        cols = psi_columns(PsiField(x=x, hm=hm), LAM_GRID)
        assert np.array_equal(cols[:, 1], -1j * np.conj(cols[:, 0])), x


def test_columns_are_bounded(hm):
    for x in (-1.0, 0.0, 1.0):
        f = PsiField(x=x, hm=hm)
        assert np.all(np.abs(psi_columns(f, LAM_GRID)) <= 10.0)


def test_batch_and_single_evaluations_agree(hm):
    batch_field = PsiField(x=0.5, hm=hm)
    single_field = PsiField(x=0.5, hm=hm)
    lams = np.array([-1.5, -0.25, 0.75, 2.0])
    batch = psi_columns(batch_field, lams)
    for lam, cb in zip(lams, batch):
        cs = psi_columns(single_field, [float(lam)])[0]
        assert abs(cb[0] - cs[0]) <= 1e-9
        assert abs(cb[1] - cs[1]) <= 1e-9


def test_columns_match_an_independent_dop853_march(hm, dop853_columns):
    # up to s = 2.4, the cap on the PII interval
    for s in (2.0, 2.4):
        lams = s * gauss_legendre(32).nodes_f8
        for x in (-1.0, 0.0, 1.0):
            f = PsiField(x=x, hm=hm)
            ref = np.concatenate(dop853_columns(f, lams))
            cols = psi_columns(f, lams)
            got = np.concatenate([cols[:, 0], cols[:, 1]])
            assert np.max(np.abs(got - ref)) <= 2e-12


def test_a_column_marched_alone_matches_its_ladder_batch(hm):
    # The march's grid depends on the field alone and every operation is
    # elementwise in lambda, so a column does not depend on its batch.
    for x in (-1.0, 0.0, 1.0):
        lams = np.concatenate([2.0 * gauss_legendre(n).nodes_f8 for n in (32, 64)])
        batch = psi_columns(PsiField(x=x, hm=hm), lams)
        for lam, cb in list(zip(lams, batch))[::8]:
            ca = psi_columns(PsiField(x=x, hm=hm), [float(lam)])[0]
            assert abs(ca[0] - cb[0]) <= 1e-15
            assert abs(ca[1] - cb[1]) <= 1e-15


def test_ladder_batch_steps_over_the_decayed_potential(hm):
    # The first two rungs of a PII ladder at x = 0, s = 1.8, whose 48
    # non-negative nodes march (a negative one reads its mirror).  The grid is
    # fixed per field: one call samples u to grade it, then one call
    # evaluates u at the three Gauss points of every step.  Past x ~ 6,
    # where u < 1e-5, the steps are long, so few lie there.
    f = PsiField(x=0.0, hm=hm)
    u = f._u
    calls = []

    def counting(xs):
        calls.append(np.array(xs))
        return u(xs)

    f._u = counting
    lams = np.concatenate([1.8 * gauss_legendre(n).nodes_f8 for n in (32, 64)])
    psi_columns(f, lams)
    assert len(f.cache) == 48
    assert len(calls) == 2
    gauss = calls[1]
    steps = len(gauss) // 3
    assert len(gauss) == 3 * steps and steps <= 300
    assert np.count_nonzero(gauss > 6.0) <= 0.2 * len(gauss)


def test_potential_is_the_profile_in_the_window_and_airy_beyond():
    # u is the profile up to x_right, node included, and Ai right of it, so
    # the window's end cubic is never extrapolated towards the march start, 12.5
    wide = solve_hm(x_left=-20.0, h=0.004)
    f = PsiField(x=-5.0, hm=wide)
    xs = np.array([-15.0, 0.5, 8.0, 9.5, 12.5])
    expected = [wide.u_at(v) for v in xs[:3]] + [airy_ai(9.5), airy_ai(12.5)]
    assert np.array_equal(f._u(xs), expected)
    # a wider window does not admit a field left of x = -10, where the march
    # loses psi_det = 1
    with pytest.raises(ValueError):
        PsiField(x=-12.0, hm=wide)


def test_repeated_lambda_is_marched_once(hm, monkeypatch):
    marches = []
    march = gapdet.psi._march

    def counting(field_, lams):
        marches.append(list(lams))
        return march(field_, lams)

    monkeypatch.setattr(gapdet.psi, "_march", counting)
    cols = psi_columns(PsiField(x=0.0, hm=hm), [0.3, 0.3, 0.3])
    assert marches == [[0.3]]
    assert cols.shape == (3, 2)
    assert np.array_equal(cols[0], cols[1]) and np.array_equal(cols[0], cols[2])


def test_cache_returns_the_stored_column(field0):
    # The cache holds psi11 alone; psi21 is formed from it on every read.
    c1 = psi_columns(field0, [1.25])[0]
    c2 = psi_columns(field0, [1.25])[0]
    assert c1.shape == (2,)
    assert np.array_equal(c1, c2) and field0.cache[1.25] == c1[0]


def test_derivative_matches_finite_difference(field0):
    # The library forms the psi11 row alone; the psi21 row, which the
    # kernel does not read, comes from the oracle's own lambda-matrix.
    lam, h = 0.7, 1e-4
    col = psi_columns(field0, [lam])[0]
    d1 = _lambda_derivative(field0, lam, col[0])
    a11, _, a21 = oracles._lambda_matrix(field0, lam)
    d2 = a21 * col[0] - a11 * col[1]
    hi = psi_columns(field0, [lam + h])[0]
    lo = psi_columns(field0, [lam - h])[0]
    fd1 = (hi[0] - lo[0]) / (2 * h)
    fd2 = (hi[1] - lo[1]) / (2 * h)
    assert abs(d1 - fd1) <= 1e-6
    assert abs(d2 - fd2) <= 1e-6


def test_derivative_closed_form_without_potential(free_hm):
    f = PsiField(x=2.0, hm=free_hm)
    lam = 1.1
    col = psi_columns(f, [lam])[0]
    d1 = _lambda_derivative(f, lam, col[0])
    theta = (4.0 / 3.0) * lam**3 + 2.0 * lam
    want1 = -1j * (4.0 * lam**2 + 2.0) * np.exp(-1j * theta)
    assert abs(d1 - want1) <= 1e-8
    # the psi21 row, from the oracle's lambda-matrix: psi21 = -i e^{i theta}
    a11, _, a21 = oracles._lambda_matrix(f, lam)
    want2 = (4.0 * lam**2 + 2.0) * np.exp(1j * theta)
    assert abs(a21 * col[0] - a11 * col[1] - want2) <= 1e-8
    # a batch of lambdas gives the one-lambda results elementwise, bit for bit
    lams = np.array([-2.5, -0.4, 0.0, lam, 3.0])
    a1 = _lambda_derivative(f, lams, psi_columns(f, lams)[:, 0])
    assert a1.shape == lams.shape
    for i, v in enumerate(lams):
        one = np.array([v])
        assert a1[i] == _lambda_derivative(f, one, psi_columns(f, one)[:, 0])[0]


def test_ray_routes_are_path_independent(hm):
    f = PsiField(x=1.0, hm=hm)
    a = psi_column_ray(f, 1.5, path="dogleg")
    b = psi_column_ray(f, 1.5, path="direct")
    assert abs(a[0] - b[0]) <= 1e-9
    assert abs(a[1] - b[1]) <= 1e-9


def test_ray_seed_radius_doubling_is_flat_at_large_x(field8):
    for lam in (0.5, 1.0, 2.0, 3.5):
        a = psi_column_ray(field8, lam, R=8.0)
        b = psi_column_ray(field8, lam, R=12.0)
        assert abs(a[0] - b[0]) <= 1e-8


def test_ray_route_carries_psi21_at_large_x(field8):
    # Both entries, not only psi11: the seed bias at x = 8 is below 1e-10
    lams = [0.5, 2.0]
    march = psi_columns(field8, lams)
    for lam, ref in zip(lams, march):
        assert np.max(np.abs(psi_column_ray(field8, lam, R=8.0) - ref)) <= 1e-9


def test_ray_route_matches_the_dop853_oracle(field0, dop853_ray_column):
    # the Magnus legs against the DOP853 legs they replaced, on both entries
    for lam in (-2.0, 1.5, 3.0):
        ref = dop853_ray_column(field0, lam, tol=3e-14)
        assert np.max(np.abs(psi_column_ray(field0, lam) - ref)) <= 2e-12


def test_direct_ray_path_is_refused_beyond_one_and_a_half(field0):
    # Straight from iR, the error the path amplifies reads 1e-7 to 2e-5 at
    # |lambda| = 2 and up to 5e12 at 3; at 1.5 it is still below 1e-10.
    for lam in (1.5000001, -2.0, 3.0):
        with pytest.raises(ValueError, match="direct"):
            psi_column_ray(field0, lam, path="direct")
    a = psi_column_ray(field0, -1.5, path="direct")
    assert np.max(np.abs(a - psi_column_ray(field0, -1.5))) <= 1e-9


def test_ray_leg_forms_its_steps_in_bounded_blocks(monkeypatch, free_hm):
    # A leg's step count grows as R^2 (about 29,000 per leg at R = 16), so
    # its step matrices are formed a block at a time: memory stays bounded
    # at any R.
    sizes = []
    matrix = oracles._lambda_matrix

    def recording(field_, lam):
        sizes.append(len(lam))
        return matrix(field_, lam)

    monkeypatch.setattr(oracles, "_lambda_matrix", recording)
    psi_column_ray(PsiField(x=0.0, hm=free_hm), 0.5, R=16.0)
    assert sum(sizes) > 20000 and max(sizes) <= 4096


def test_ray_seed_bias_decays_quadratically(field0):
    # Against the production march the ray seed carries an O(1/R^2) error,
    # so doubling R should shrink the gap by about 4.
    ref = psi_columns(field0, [0.5])[0]
    errs = [abs(psi_column_ray(field0, 0.5, R=r)[0] - ref[0])
            for r in (4.0, 8.0, 16.0)]
    assert errs[0] > errs[1] > errs[2]
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_large_x_columns_approach_free_phase(field8):
    # with the free phase e^{-i theta} taken out, psi11 is close to 1
    lams = np.linspace(-2.0, 2.0, 9)
    theta = (4.0 / 3.0) * lams**3 + field8.x * lams
    assert np.max(np.abs(psi_columns(field8, lams)[:, 0] * np.exp(1j * theta) - 1.0)) <= 1e-4


def test_spectral_argument_range(field0):
    with pytest.raises(ValueError):
        psi_columns(field0, [4.0001])
    with pytest.raises(ValueError):
        psi_columns(field0, np.array([0.0, -4.2]))
    psi_columns(field0, [4.0])
    psi_columns(field0, [-4.0])
    # NaN compares False with everything, so it must fail the range check
    # rather than reach the march
    nan = float("nan")
    with pytest.raises(ValueError):
        psi_columns(field0, [nan])
    with pytest.raises(ValueError):
        psi_columns(field0, np.array([0.0, nan]))
    with pytest.raises(ValueError):
        psi_det(field0, nan)
    with pytest.raises(ValueError):
        psi_column_ray(field0, nan)


def test_field_window_validation(hm, free_hm):
    with pytest.raises(ValueError):
        PsiField(x=8.5, hm=hm)
    with pytest.raises(ValueError):
        PsiField(x=-10.5, hm=hm)
    # the field's window check is the solution's own, message included
    with pytest.raises(ValueError) as field_error:
        PsiField(x=9.0, hm=hm)
    with pytest.raises(ValueError) as hm_error:
        hm.u_at(9.0)
    assert str(field_error.value) == str(hm_error.value)
    # a non-finite x lies in no window, even the zero profile's [-10, 12.5]
    for x in (math.inf, -math.inf, float("nan")):
        with pytest.raises(ValueError, match="window"):
            PsiField(x=x, hm=free_hm)
    # a bad march tolerance must fail here, not inside the first march; below
    # 1e-15 the columns stop improving while the grid grows as tol^(-1/6)
    for tol in (0.0, -1e-12, float("nan"), math.inf, 1e-16, 1e-40):
        with pytest.raises(ValueError):
            PsiField(x=0.0, hm=hm, tol=tol)
    PsiField(x=0.0, hm=hm, tol=1e-15)


def test_ray_path_name_validation(field0):
    with pytest.raises(ValueError):
        psi_column_ray(field0, 0.5, path="zigzag")
    # the seed sits at lambda0 = iR, which must be a finite point above 0;
    # the route takes about 113 R^2 steps, so R is capped at 64
    for r in (0.0, -8.0, float("nan"), math.inf, 100.0, 1e3):
        with pytest.raises(ValueError):
            psi_column_ray(field0, 0.5, R=r)
