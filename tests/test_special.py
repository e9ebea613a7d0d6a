"""Tests for the Mittag-Leffler evaluator.

Reference values come from two independent oracles: the Taylor series
resummed with mpmath at 30+ digits (small and moderate arguments) and
the spectral integral

    E_a(-x) = (sin(a*pi)/(a*pi)) * int_0^inf exp(-(x*y)^(1/a))
              / (y^2 + 2*y*cos(a*pi) + 1) dy

evaluated with scipy quad (large arguments).  Both were frozen after
agreeing with each other to better than 1e-13 where their ranges
overlap.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ctstat.errors import AccuracyError, DomainError
from ctstat.special import (
    MlEvaluation,
    asymptotic_crossover,
    ml_one_param,
    ml_survival,
    ml_values,
)

# (alpha, x, E_alpha(-x)) frozen from the mpmath series oracle
SERIES_ORACLE = [
    (0.3, 0.5, 0.6326490059435991),
    (0.7, 2.0, 0.21378672701529727),
    (0.9, 4.0, 0.050411103314434616),
    (0.5, 1.0, 0.427583576155807),
    (0.2, 0.8, 0.5277484804970921),
    (0.7, 6.0, 0.0632613348606888),
    (0.5, 3.0, 0.17900115118138996),
    (0.95, 12.0, 0.005153797763285427),
    (0.8, 7.0, 0.0378613333966849),
]

# (alpha, x, E_alpha(-x)) frozen from the spectral integral oracle
INTEGRAL_ORACLE = [
    (0.5, 25.0, 0.022549572432641364),
    (0.7, 30.0, 0.011444251527526973),
    (0.2, 10.0, 0.07960784136843506),
    (0.9, 45.0, 0.002426575804948218),
    (0.6, 40.0, 0.011375102687516282),
]


@pytest.mark.parametrize("alpha,x,expected", SERIES_ORACLE)
def test_series_regime_against_oracle(alpha, x, expected):
    r = ml_one_param(alpha, -x)
    assert abs(r.value - expected) < 1e-11
    assert r.est_error < 1e-10


@pytest.mark.parametrize("alpha,x,expected", INTEGRAL_ORACLE)
def test_asymptotic_regime_against_oracle(alpha, x, expected):
    r = ml_one_param(alpha, -x)
    assert abs(r.value - expected) < 1e-11
    assert r.regime == "asymptotic"


def test_half_order_closed_form():
    # E_{1/2}(-x) = exp(x^2) erfc(x); at x = 1 this is e*erfc(1)
    from scipy.special import erfc

    for x in [0.25, 1.0, 2.0, 3.0]:
        ref = math.exp(x * x) * erfc(x)
        assert abs(ml_one_param(0.5, -x).value - ref) < 1e-12


def test_classical_boundary_is_exp():
    z = np.linspace(-30.0, 0.0, 121)
    for zz in z:
        r = ml_one_param(1.0, float(zz))
        assert r.value == pytest.approx(math.exp(zz), abs=1e-13)


def test_positive_argument_half_order():
    # E_{1/2}(z) = exp(z^2) erfc(-z) holds for z > 0 as well
    from scipy.special import erfc

    r = ml_one_param(0.5, 2.0)
    assert r.value == pytest.approx(math.exp(4.0) * erfc(-2.0), rel=1e-13)


@pytest.mark.parametrize("z", [10.0, 30.0])
def test_positive_argument_overflow_raises(z):
    # the growing series overflows to NaN long before E_{1/2}(30) ~ 1e391
    # leaves the double range; that must raise, not return NaN
    with pytest.raises(AccuracyError):
        ml_one_param(0.5, z)


def test_value_at_zero():
    r = ml_one_param(0.7, 0.0)
    assert r.value == 1.0
    assert r.est_error == 0.0


def test_spectral_integral_cross_check():
    # independent quadrature oracle, evaluated at test time
    for alpha in [0.3, 0.6, 0.85]:
        for x in [0.5, 4.0, 20.0]:
            c = math.cos(alpha * math.pi)
            xa = x ** (1.0 / alpha)
            f = lambda y: math.exp(-xa * y ** (1.0 / alpha)) / (
                y * y + 2.0 * y * c + 1.0
            )
            v = quad(f, 0.0, 1.0, epsabs=1e-13, limit=300)[0]
            v += quad(f, 1.0, np.inf, epsabs=1e-13, limit=300)[0]
            ref = math.sin(alpha * math.pi) / (alpha * math.pi) * v
            assert abs(ml_one_param(alpha, -x).value - ref) < 1e-10


def test_evaluation_reports_regime_and_terms():
    r = ml_one_param(0.7, -1.0)
    assert isinstance(r, MlEvaluation)
    assert r.regime == "series"
    assert r.terms_used > 3
    assert 0.0 < r.est_error < 1e-11

    r = ml_one_param(0.7, -30.0)
    assert r.regime == "asymptotic"
    assert r.terms_used > 3


def test_est_error_covers_regime_disagreement():
    # both internal routes evaluated at the same point, just past the
    # crossover, must agree within the asymptotic route's estimate
    from ctstat.special import _asymptotic, _series_mp

    for alpha in [0.4, 0.6, 0.8, 0.95]:
        xc = asymptotic_crossover(alpha)
        x = xc * 1.0001
        routed = ml_one_param(alpha, -x)
        assert routed.regime == "asymptotic"
        exact = _series_mp(alpha, -x, x ** (1.0 / alpha))[0]
        assert abs(routed.value - exact) <= routed.est_error + 1e-13
        va, _, ea = _asymptotic(alpha, x)
        assert va == routed.value and ea == routed.est_error


def test_crossover_tracks_order():
    # the switch point grows roughly like 25.3**alpha
    for alpha in [0.2, 0.5, 0.7, 0.9]:
        xc = asymptotic_crossover(alpha)
        assert 0.9 * 25.3**alpha < xc < 1.3 * 25.3**alpha


def test_survival_scalar_and_array():
    t = np.linspace(0.0, 20.0, 101)
    s = ml_survival(0.7, t)
    assert s.shape == t.shape
    assert s[0] == 1.0
    assert np.all(np.diff(s) < 0.0)
    assert np.all((s > 0.0) & (s <= 1.0))
    assert ml_survival(0.7, 2.0) == pytest.approx(float(s[10]), abs=1e-12)


def test_vector_matches_scalar():
    z = -np.linspace(0.0, 50.0, 201)
    for alpha in [0.3, 0.7, 0.95, 1.0]:
        v = ml_values(alpha, z)
        s = np.array([ml_one_param(alpha, float(zz)).value for zz in z])
        assert np.max(np.abs(v - s)) < 1e-10


def test_monotone_in_order_at_large_argument():
    # heavier tails for smaller order once x is past the crossing region
    vals = [ml_one_param(a, -30.0).value for a in [0.3, 0.5, 0.7, 0.9]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.2, float("nan")])
def test_order_domain(alpha):
    with pytest.raises(DomainError):
        ml_one_param(alpha, -1.0)


def test_argument_domain():
    with pytest.raises(DomainError):
        ml_one_param(0.5, float("nan"))
    with pytest.raises(DomainError):
        ml_survival(0.5, -0.5)
    with pytest.raises(DomainError):
        ml_values(0.5, np.array([0.5]))


def test_unreachable_accuracy_raises_with_payload():
    # tiny order, argument just past 1: the series peak exp(x**(1/a)) is
    # astronomically large and the asymptotic route cannot reach target
    with pytest.raises(AccuracyError) as exc:
        ml_one_param(0.0004, -1.01)
    assert math.isfinite(exc.value.value)
    assert exc.value.est_error > 1e-11
