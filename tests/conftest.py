import numpy as np
import pytest

from gapdet import solve_hm
from gapdet.painleve2 import HastingsMcLeodSolution


@pytest.fixture(scope="session")
def hm():
    """One boundary-value solve shared by every test that needs the potential."""
    return solve_hm()


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
    return HastingsMcLeodSolution(
        x_left=-2.0, x_right=8.0, h=float(x[1] - x[0]),
        x=x, u=u, u_x=u_x, v=v, residual=0.0, iterations=0,
    )
