import numpy as np
import pytest

from gapdet import solve_hm, v_at
from gapdet.painleve2 import HastingsMcLeodSolution
from gapdet.psi import _X_START


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true",
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="marked slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def hm():
    """One boundary-value solve shared by every test that needs the potential."""
    return solve_hm()


@pytest.fixture(scope="session")
def free_hm():
    """A zero profile, u = u_x = v = 0, on [-10, _X_START].

    On it the linear system decouples and its columns are known in closed
    form.  The window ends where every march starts, so the potential is
    read from the (zero) interpolant everywhere and never from Ai.
    """
    x = np.linspace(-10.0, _X_START, 2251)
    zero = np.zeros_like(x)
    return HastingsMcLeodSolution(x=x, u=zero, u_x=zero, v=zero, residual=0.0, iterations=0)


@pytest.fixture(scope="session")
def shooting_hm():
    """Test-only oracle for the Hastings-McLeod profile, independent of solve_hm.

    DOP853 integrates u'' = x u + 2 u^3 down from Airy data at x = 8 to
    x = -2 at rtol 1e-13; its dense output is sampled on a grid of step
    0.002 and wrapped as a solution, so the kernels and ladders can run on
    it unchanged.  Shooting leftwards loses the separatrix below about
    x = -4, so the window stops well short of that.
    """
    from scipy.integrate import solve_ivp
    from scipy.special import airy

    ai, aip, _, _ = airy(8.0)
    res = solve_ivp(
        lambda x, y: [y[1], x * y[0] + 2.0 * y[0] ** 3],
        (8.0, -2.0),
        [ai, aip],
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
    )
    x = np.linspace(-2.0, 8.0, 5001)
    u, u_x = res.sol(x)
    v = u_x * u_x - x * u * u - u ** 4
    return HastingsMcLeodSolution(x=x, u=u, u_x=u_x, v=v, residual=0.0, iterations=0)


@pytest.fixture(scope="session")
def dop853_columns():
    """Test-only oracle for the column march, independent of psi.py's integrator.

    scipy's eighth-order DOP853 marches psi itself (not the rotation-free
    state psi.py integrates) at rtol 1e-13, from the same far-field seed at
    psi._X_START and with the same u, down to field.x.  Returns psi11 and
    psi21 there as two arrays.
    """
    from scipy.integrate import solve_ivp

    def march(field, lams):
        lams = np.asarray(lams, dtype=float)
        m = len(lams)

        def rhs(t, y):
            u = field._u(np.array([t]))[0]
            p1, p2 = y[:m], y[m:]
            return np.concatenate([-1j * lams * p1 + 1j * u * p2,
                                   -1j * u * p1 + 1j * lams * p2])

        th0 = (4.0 / 3.0) * lams**3 + _X_START * lams
        y0 = np.concatenate([np.exp(-1j * th0), -1j * np.exp(1j * th0)])
        y = solve_ivp(rhs, (_X_START, field.x), y0, method="DOP853",
                      rtol=1e-13, atol=1e-15).y[:, -1]
        return y[:m], y[m:]

    return march


@pytest.fixture(scope="session")
def dop853_ray_column():
    """Test-only oracle for oracles.psi_column_ray, independent of its Magnus legs.

    The ray route as it ran on scipy's DOP853: the same first-order seed at
    lambda0 = iR and the same path, each leg integrating the phase-extracted
    phi = psi e^{i theta} at rtol = atol = tol, then psi = phi e^{-i theta}.
    """
    from scipy.integrate import solve_ivp

    def ray(field_, lam, R=8.0, path="dogleg", tol=1e-13):
        x = field_.x
        u, ux, v = field_.hm.u_at(x), field_.hm.u_x_at(x), v_at(field_.hm, x)
        u2 = u * u
        lam0 = 1j * R
        y = np.array([1.0 - 1j * v / (2.0 * lam0), u / (2.0 * lam0)], dtype=complex)

        legs = [(lam0, 0.0 + 0j), (0.0 + 0j, complex(lam))] if path == "dogleg" \
            else [(lam0, complex(lam))]
        for a, b in legs:
            if a == b:
                continue
            d = b - a

            def rhs(tau, yy, a=a, d=d):
                mu = a + tau * d
                b12 = 4j * mu * u - 2.0 * ux
                b21 = -4j * mu * u - 2.0 * ux
                b22 = 8j * mu ** 2 + 2j * x + 2j * u2
                return d * np.array([-2j * u2 * yy[0] + b12 * yy[1], b21 * yy[0] + b22 * yy[1]])

            res = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=tol, atol=tol)
            if res.status != 0:
                raise RuntimeError(f"DOP853 gave up at path position {res.t[-1]}")
            y = res.y[:, -1]

        return y * np.exp(-1j * ((4.0 / 3.0) * lam ** 3 + x * lam))

    return ray
