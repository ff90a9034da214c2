"""Closed-form large-gap predictions and the exponent fit."""

import math

import numpy as np
import pytest

from gapdet.asympt import (
    AsymptoticPrediction,
    dyson_sine_prediction,
    fcet_fit,
    logsasy_prediction,
    logxasy_prediction,
    theorem1_prediction,
    theorem2_prediction,
)
from gapdet.painleve2 import tw_integral, v_at
from gapdet.specfun import CONSTANTS


def test_reference_values():
    assert abs(theorem2_prediction(2.0, 1.0).value - (-61.798315013281304)) <= 1e-9
    assert abs(theorem2_prediction(1.0, 0.0).value - (-1.2784546)) <= 1e-6
    assert abs(dyson_sine_prediction(6.0, 1.0).value - (-18.8864410)) <= 1e-6
    assert abs(dyson_sine_prediction(1.0, 1.0).value - (-0.9385012)) <= 1e-6


def test_decomposition_sums_to_value():
    for s, x in ((1.0, 0.0), (1.7, 1.0), (2.2, -1.0)):
        p = theorem2_prediction(s, x)
        assert p.formula_id == "theorem2"
        assert abs(p.value - (p.leading + p.constant + p.tw_term)) <= 1e-12
        assert p.tw_term == 0.0


def test_leading_term_formula():
    s, x = 1.5, 0.7
    want = -(2.0 / 3.0) * s**6 - x * s**4 - 0.5 * (s * x) ** 2 - 0.75 * math.log(s)
    assert abs(theorem2_prediction(s, x).leading - want) <= 1e-12
    assert abs(theorem2_prediction(s, x).constant - float(CONSTANTS.omega0)) <= 1e-15


def test_refined_prediction_differs_by_the_moment_integral(hm):
    for s, x in ((1.6, 0.0), (2.0, 1.0), (1.8, -1.0)):
        a = theorem1_prediction(s, x, hm)
        b = theorem2_prediction(s, x)
        assert a.formula_id == "theorem1"
        assert abs((a.value - b.value) - tw_integral(hm, x)) <= 1e-12
        assert a.tw_term >= 0.0
    # the correction dies off where the potential does
    assert abs(theorem1_prediction(2.0, 6.0, hm).value
               - theorem2_prediction(2.0, 6.0).value) <= 1e-6


def test_dyson_scaling_identity():
    # the sine-kernel prediction depends on s and x only through their product
    a = dyson_sine_prediction(6.0, 1.0)
    b = dyson_sine_prediction(1.0, 6.0)
    assert a.value == b.value
    want = -(6.0**2) / 2.0 - 0.25 * math.log(6.0) + float(CONSTANTS.dyson_const)
    assert abs(a.value - want) <= 1e-12


def test_slope_formulas_are_plain_floats(hm):
    g = logsasy_prediction(2.0, 1.0)
    assert type(g) is float
    assert g == -4.0 * 2.0**5 - 4.0 * 1.0 * 2.0**3 - 1.0**2 * 2.0 - 0.75 / 2.0
    assert logsasy_prediction(1.0, 0.0) == -4.75
    v0 = v_at(hm, 0.0)
    got = logxasy_prediction(2.0, 0.0, v0)
    assert type(got) is float
    assert abs(got - (-16.0 - v0 - 1.0 / 32.0)) <= 1e-12


def test_predictions_decrease_in_s():
    for x in (-1.0, 0.0, 1.0):
        vals = [theorem2_prediction(s, x).value for s in np.linspace(1.0, 2.4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [dyson_sine_prediction(s, 1.0).value for s in np.linspace(1.0, 8.0, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_leading_term_dominates_near_the_band_edge():
    p = theorem2_prediction(2.2, 0.0)
    assert 1.0 < p.value / p.leading < 1.05


def test_domain_validation(hm):
    with pytest.raises(ValueError):
        theorem2_prediction(0.0, 1.0)
    with pytest.raises(ValueError):
        theorem1_prediction(-1.0, 0.0, hm)
    with pytest.raises(ValueError):
        logsasy_prediction(0.0, 1.0)
    with pytest.raises(ValueError):
        dyson_sine_prediction(6.0, 0.0)
    with pytest.raises(ValueError):
        dyson_sine_prediction(6.0, -1.0)


@pytest.mark.parametrize("predict", [
    theorem2_prediction,
    dyson_sine_prediction,
    logsasy_prediction,
    lambda s, x: logxasy_prediction(s, x, 0.0),
], ids=["theorem2", "dyson_sine", "logsasy", "logxasy"])
def test_nan_s_is_refused(predict):
    # a NaN fails every comparison, so it must not slip through as "not <= 0";
    # an infinite s and a NaN x would come back as a NaN or infinite value
    for s, x in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            predict(s, x)


# --- exponent fit -------------------------------------------------------------


def test_fit_recovers_a_synthetic_power_law():
    svals = [1.5, 1.8, 2.1, 2.5]
    samples = [(s, -(2.0 / 3.0) * s**6) for s in svals]
    exponent, prefactor = fcet_fit(samples)
    assert type(exponent) is float and type(prefactor) is float
    assert abs(exponent - 6.0) <= 1e-6
    assert abs(prefactor - 2.0 / 3.0) <= 1e-6

    samples = [(s, -s**2) for s in svals]
    exponent, prefactor = fcet_fit(samples)
    assert abs(exponent - 2.0) <= 1e-6
    assert abs(prefactor - 1.0) <= 1e-6


def test_fit_input_validation():
    good = [(s, -s**6) for s in (1.5, 1.7, 1.9, 2.1)]
    with pytest.raises(ValueError):
        fcet_fit(good[:3])
    with pytest.raises(ValueError):
        fcet_fit(good[:3] + [good[0]])  # duplicate s does not add a point
    with pytest.raises(ValueError):
        fcet_fit([(1.0, -1.0)] + good[:3])  # s below the asymptotic range
    with pytest.raises(ValueError):
        fcet_fit([(1.5, 0.1), (1.7, -1.0), (1.9, -2.0), (2.1, -3.0)])
    # a log_det or an s that is not finite is refused before the fit; the
    # match matters, since LAPACK's LinAlgError on a NaN s is a ValueError too
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            fcet_fit(good + [(2.3, bad)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fcet_fit(good + [(bad, -10.0)])
