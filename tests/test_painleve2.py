"""The connection-problem boundary value solve and its integral functionals."""

import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import gapdet.painleve2
from gapdet.painleve2 import (
    NewtonDivergenceError,
    WrongBranchError,
    _interior_residual,
    _newton_jacobian,
    _solve_tridiagonal,
    solve_hm,
    tw_integral,
    v_at,
)
from gapdet.specfun import airy_ai

mpmath.mp.dps = 30


def test_solution_metadata(hm):
    assert hm.x_left == -10.0 and hm.x_right == 8.0 and hm.h == 0.002
    assert hm.x.size == hm.u.size == hm.u_x.size == hm.v.size == 9001
    # four Newton steps reach the residual floor (2.07e-10), where the loop stops
    assert hm.iterations == 5
    assert hm.residual <= 1e-8


def test_residual_recomputed_independently(hm):
    # The Numerov stencil of u'' = f, f = 2 u^3 + x u, on the stored profile:
    # the second difference against the 1-10-1 weighted average of f.
    u, x, h = hm.u, hm.x, hm.h
    f = 2.0 * u ** 3 + x * u
    lhs = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    rhs = (f[2:] + 10.0 * f[1:-1] + f[:-2]) / 12.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_right_boundary_is_airy_data(hm):
    assert hm.u_at(8.0) - airy_ai(8.0) == 0.0
    assert abs(hm.u_at(6.0) / airy_ai(6.0) - 1.0) <= 1e-5
    assert abs(hm.u_at(4.5) / airy_ai(4.5) - 1.0) <= 1e-3


def test_left_asymptote(hm):
    # u ~ sqrt(-x/2) deep on the left; at x = -8 the correction is < 1e-2.
    assert abs(hm.u_at(-8.0) - 2.0) <= 1e-2
    assert abs(hm.u_at(-10.0) - np.sqrt(5.0)) <= 1e-2


def test_profile_positive_and_decreasing_on_the_right(hm):
    assert np.min(hm.u) > 0.0
    xs = np.linspace(0.0, 8.0, 200)
    vals = np.array([hm.u_at(t) for t in xs])
    assert np.all(np.diff(vals) < 0.0)


def test_value_at_zero_against_shooting_oracle(hm, shooting_hm):
    # The oracle integrates the same ODE down from Airy data at the right
    # edge with an unrelated adaptive integrator (DOP853 at rtol 1e-13).
    assert abs(hm.u_at(0.0) - shooting_hm.u_at(0.0)) <= 1e-9
    # regression pin for the value the oracle above confirms
    assert abs(hm.u_at(0.0) - 0.36706155154807135) <= 1e-9


def test_value_at_zero_matches_the_published_value(hm):
    # u(0) = 0.3670615515480784 (Fornberg & Weideman, Found. Comput. Math.
    # 14, 2014), from a spectral solve independent of both routes above.
    assert abs(hm.u_at(0.0) - 0.3670615515480784) <= 1e-12


def test_tridiagonal_sweep_is_lapack_bit_for_bit(hm):
    # test-only oracle: scipy's solve_banded, which calls LAPACK's dgtsv, on
    # the Numerov Jacobian at the converged profile; the Newton right-hand
    # side there is rounding noise, so a random one is solved as well
    from scipy.linalg import solve_banded

    sub, diag, sup = _newton_jacobian(hm.u, hm.x, hm.h)
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    rhs_newton = -_interior_residual(hm.u, hm.x, hm.h)
    rhs_random = np.random.default_rng(2012).standard_normal(diag.size)
    for rhs in (rhs_newton, rhs_random):
        assert np.array_equal(_solve_tridiagonal(sub, diag, sup, rhs),
                              solve_banded((1, 1), ab, rhs))


def test_profile_is_pinned_across_the_window(hm):
    # u_at as computed by a Newton loop whose steps came from
    # scipy.linalg.solve_banded and whose Airy data came from
    # scipy.special.airy; the sweep and the Bessel-K Airy replace both
    pins = {-9.0: 2.1209579634146856, -5.0: 1.5794870878484542,
            0.0: 0.36706155154807135, 4.0: 0.0009515638989305485,
            7.5: 1.9172560675017937e-07}
    for x, want in pins.items():
        assert abs(hm.u_at(x) - want) <= 1e-12, x


def test_step_refinement_is_fourth_order():
    u0 = [solve_hm(h=h).u_at(0.0) for h in (0.008, 0.004, 0.002)]
    ratio = (u0[0] - u0[1]) / (u0[1] - u0[2])
    assert 15.0 <= ratio <= 17.0


def test_small_steps_stop_at_their_rounding_floor(hm):
    # The residual floor ~2 eps max|u| / h^2 passes 1e-8 below h ~ 6e-4, so
    # the Newton loop stops at four times it: the accepted floor h = 1e-4
    # and h = 4e-4 on the widest window converge, to the default u(0)
    for x_left, h in ((-10.0, 1e-4), (-40.0, 4e-4)):
        sol = solve_hm(x_left=x_left, h=h)
        assert sol.iterations == 5
        assert abs(sol.u_at(0.0) - hm.u_at(0.0)) <= 1e-12, (x_left, h)


@pytest.mark.parametrize("x_left, x_right, h", [
    (-8.0, 6.0, 0.01), (-8.0, 40.0, 0.01), (-40.0, 6.0, 0.01), (-40.0, 40.0, 0.01),
    (-8.0, 6.0, 1e-4),
    pytest.param(-8.0, 40.0, 1e-4, marks=pytest.mark.slow),
    pytest.param(-40.0, 6.0, 1e-4, marks=pytest.mark.slow),
    pytest.param(-40.0, 40.0, 1e-4, marks=pytest.mark.slow),
])
def test_accepted_box_corners_converge_in_plain_newton(x_left, x_right, h):
    # Newton takes full steps with no damping or divergence watch; that is
    # sound because windows across the accepted box converge from the
    # default start in a few steps, which these corners pin
    sol = solve_hm(x_left, x_right, h)
    assert sol.iterations <= 5
    assert np.min(sol.u) > 0.0


def test_accessors_return_python_floats(hm):
    assert type(hm.u_at(1.0)) is float
    assert type(hm.u_x_at(1.0)) is float
    assert type(v_at(hm, 1.0)) is float
    assert type(tw_integral(hm, 1.0)) is float


def test_derivative_accessor_matches_finite_difference(hm):
    for x in (-3.0, 0.0, 2.5):
        fd = (hm.u_at(x + 1e-5) - hm.u_at(x - 1e-5)) / 2e-5
        assert abs(hm.u_x_at(x) - fd) <= 1e-7


def test_hermite_profile_matches_cubic_splines_on_the_same_grid(hm):
    # test-only reference: scipy's not-a-knot cubic splines through the nodes
    from scipy.interpolate import CubicSpline

    xs = np.random.default_rng(2012).uniform(-9.0, 7.0, 5000)
    u, ux = hm._u_ux(xs)
    v = np.array([v_at(hm, x) for x in xs])
    assert np.max(np.abs(u - CubicSpline(hm.x, hm.u)(xs))) <= 1e-14
    assert np.max(np.abs(ux - CubicSpline(hm.x, hm.u_x)(xs))) <= 1e-13
    assert np.max(np.abs(v - CubicSpline(hm.x, hm.v)(xs))) <= 1e-13


def test_hermite_profile_returns_the_stored_node_values(hm):
    u, ux = hm._u_ux(hm.x)
    assert np.array_equal(u, hm.u) and np.array_equal(ux, hm.u_x)
    assert hm.u_at(hm.x_left) == hm.u[0] and hm.u_x_at(hm.x_right) == hm.u_x[-1]


def test_window_and_step_are_read_off_the_grid(hm, free_hm):
    # x_left + h * k misses x_right on about half the windows (by 8.9e-16
    # at 7.3), so solve_hm pins the last node
    sol = solve_hm(x_right=7.3)
    assert sol.x[-1] == sol.x_right == 7.3 and sol.h == (7.3 + 10.0) / 8650
    # a hand-built solution claims exactly its grid, and nothing past it
    assert (free_hm.x_left, free_hm.x_right) == (free_hm.x[0], free_hm.x[-1]) == (-10.0, 12.5)
    short = dataclasses.replace(hm, **{k: getattr(hm, k)[:8001] for k in ("x", "u", "u_x", "v")})
    assert short.x_right == short.x[-1] == 6.0 and short.h == hm.h
    with pytest.raises(ValueError, match="window"):
        short.u_at(7.0)
    with pytest.raises(TypeError):
        dataclasses.replace(hm, x_right=12.0)


def test_unsorted_or_mismatched_grid_rejected(hm):
    # the interpolant locates each point's interval by bisection on x
    swapped = hm.x.copy()
    swapped[[4500, 4501]] = swapped[[4501, 4500]]
    with pytest.raises(ValueError):
        dataclasses.replace(hm, x=swapped)
    with pytest.raises(ValueError):
        dataclasses.replace(hm, u=hm.u[:-1])


def test_v_is_the_squared_tail_mass(hm):
    body, _ = quad(lambda y: hm.u_at(y) ** 2, 0.0, 8.0, limit=200, epsabs=1e-12)
    tail = float(mpmath.quad(lambda y: mpmath.airyai(y) ** 2, [8, mpmath.inf]))
    assert abs(v_at(hm, 0.0) - (body + tail)) <= 1e-6
    # difference form avoids the tail entirely
    mid, _ = quad(lambda y: hm.u_at(y) ** 2, -2.0, 6.0, limit=200, epsabs=1e-12)
    assert abs((v_at(hm, -2.0) - v_at(hm, 6.0)) - mid) <= 1e-7


def test_moment_functional_against_quadrature_oracle(hm, shooting_hm):
    tail = float(mpmath.quad(lambda y: y * mpmath.airyai(y) ** 2, [8, mpmath.inf]))
    body, _ = quad(lambda y: y * hm.u_at(y) ** 2, 0.0, 8.0, limit=200, epsabs=1e-13)
    assert abs(tw_integral(hm, 0.0) - (body + tail)) <= 1e-8
    # the same integral on the shooting profile confirms the pin
    body, _ = quad(lambda y: y * shooting_hm.u_at(y) ** 2, 0.0, 8.0, limit=200, epsabs=1e-13)
    assert abs(tw_integral(hm, 0.0) - (body + tail)) <= 1e-9
    assert abs(tw_integral(hm, 0.0) - 0.031105985306311295) <= 1e-9


def test_moment_functional_shape(hm):
    xs = np.linspace(-8.0, 7.0, 31)
    vals = np.array([tw_integral(hm, t) for t in xs])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert tw_integral(hm, 6.0) <= 1e-6


def test_moment_derivative_is_minus_v(hm):
    h = 1e-4
    fd = (tw_integral(hm, h) - tw_integral(hm, -h)) / (2 * h)
    assert abs(fd + v_at(hm, 0.0)) <= 1e-6


def test_window_and_step_validation():
    with pytest.raises(ValueError):
        solve_hm(x_left=-7.0)
    with pytest.raises(ValueError):
        solve_hm(h=0.1)
    with pytest.raises(ValueError):
        solve_hm(h=-0.002)
    # the window and step have floors too; none of these reaches the grid
    for x_left in (-np.inf, np.nan, -41.0):
        with pytest.raises(ValueError):
            solve_hm(x_left=x_left)
    with pytest.raises(ValueError):
        solve_hm(h=5e-5)


def test_evaluation_outside_window_rejected(hm):
    for bad in (-10.001, 8.001):
        with pytest.raises(ValueError):
            hm.u_at(bad)
    with pytest.raises(ValueError):
        tw_integral(hm, -9.001)
    with pytest.raises(ValueError):
        tw_integral(hm, 7.001)
    # the inclusive edges still work
    tw_integral(hm, -9.0)
    tw_integral(hm, 7.0)


def test_negated_start_converges_to_the_default_profile(hm, monkeypatch):
    # plain Newton leaves a negated start for the positive branch (34 steps)
    monkeypatch.setattr(gapdet.painleve2, "_initial_guess", lambda x: -hm.u)
    assert np.max(np.abs(solve_hm().u - hm.u)) <= 1e-15


def test_negated_airy_data_are_refused_after_convergence(monkeypatch):
    # with -Ai at the right edge Newton converges to a profile dipping to
    # -4.7e-8, which only the check on the converged profile catches
    ai = gapdet.painleve2.airy_ai
    monkeypatch.setattr(gapdet.painleve2, "airy_ai", lambda x: -ai(x))
    with pytest.raises(WrongBranchError, match="converged to a non-positive branch"):
        solve_hm()


def test_hopeless_start_raises_divergence(monkeypatch):
    monkeypatch.setattr(gapdet.painleve2, "_initial_guess", lambda x: np.full(x.size, 1e30))
    with pytest.raises(NewtonDivergenceError):
        solve_hm()
