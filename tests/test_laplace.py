"""Tests for transform symbols and numerical inversion.

Accuracy assertions use closed-form transform pairs: exponentials,
regularized incomplete gamma tails, the Mittag-Leffler survival pair
(checked against the direct evaluator), and the geometric resummation
of the two-point mixture, which for exponential waits collapses to
exp(-rate*(1-v)*t).
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from ctstat.errors import DomainError, InversionError
from ctstat.laplace import (
    LaplaceSymbol,
    counting_symbol,
    density_symbol,
    invert,
    marginal_symbol,
    memory_kernel_symbol,
    stehfest_weights,
    survival_symbol,
)
from ctstat.renewal import Exponential, MittagLeffler
from ctstat.special import ml_survival
from ctstat.stats import ExponentialJumps


def test_weights_order_two_by_hand():
    assert stehfest_weights(2) == (2.0, -2.0)


def test_weights_resolve_constant():
    # inverting 1/s must give 1, i.e. sum of w_k/k equals 1
    for order in (8, 12, 14):
        w = stehfest_weights(order)
        assert math.fsum(wk / k for k, wk in enumerate(w, start=1)) == pytest.approx(
            1.0, abs=1e-9
        )


def test_weights_validation():
    with pytest.raises(DomainError):
        stehfest_weights(13)
    with pytest.raises(DomainError):
        stehfest_weights(0)


def test_invert_exponential_pair():
    lam = 1.7
    sym = LaplaceSymbol(lambda s: 1.0 / (lam + s), "exp pair")
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert invert(sym, t) == pytest.approx(math.exp(-lam * t), abs=1e-4)
        assert invert(sym, t, method="talbot") == pytest.approx(math.exp(-lam * t), abs=1e-10)


def test_invert_array_matches_scalars():
    sym = survival_symbol(Exponential(2.0))
    t = np.array([0.5, 1.0, 4.0])
    out = invert(sym, t)
    assert out.shape == t.shape
    for ti, vi in zip(t, out):
        assert invert(sym, float(ti)) == vi
    assert isinstance(invert(sym, 1.0), float)


def test_invert_time_domain():
    sym = survival_symbol(Exponential(1.0))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            invert(sym, bad)


def test_ml_survival_pair_both_methods():
    for a in (0.5, 0.7, 0.9):
        sym = survival_symbol(MittagLeffler(a))
        for t in (0.1, 0.5, 2.0, 10.0):
            ref = ml_survival(a, t)
            assert invert(sym, t) == pytest.approx(ref, abs=1e-4)
            assert invert(sym, t, method="talbot") == pytest.approx(ref, abs=1e-10)


def test_counting_symbols_match_poisson():
    # unit-order Mittag-Leffler waits count like a unit-rate Poisson
    t = 2.0
    for n in range(11):
        ref = math.exp(-t) * t**n / math.factorial(n)
        got = invert(counting_symbol(MittagLeffler(1.0), n), t, method="talbot")
        assert got == pytest.approx(ref, abs=1e-9)


def test_arrival_cdf_matches_gamma_tail():
    # d(s)^n / s for exponential waits inverts to the Erlang cdf
    lam, n, t = 1.0, 5, 2.0
    sym = LaplaceSymbol(lambda s: (lam / (lam + s)) ** n / s)
    assert invert(sym, t, method="talbot") == pytest.approx(gammainc(n, lam * t), abs=1e-12)


def test_symbol_values_by_hand():
    law = Exponential(2.0)
    assert density_symbol(law)(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert survival_symbol(law)(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert memory_kernel_symbol(law)(1.0) == pytest.approx(0.5, abs=1e-15)
    ml = MittagLeffler(0.5)
    assert density_symbol(ml)(4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert memory_kernel_symbol(ml)(4.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "law", [Exponential(1.0), Exponential(3.0), MittagLeffler(0.3), MittagLeffler(0.7)]
)
@pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
def test_kernel_identity(law, s):
    # m(s) = (1 - d(s)) / (s d(s)) must hold exactly for the closed forms
    d = density_symbol(law)(s)
    m = memory_kernel_symbol(law)(s)
    assert abs(m - (1.0 - d) / (s * d)) < 1e-12


def test_survival_symbol_identity():
    for law in (Exponential(2.0), MittagLeffler(0.6)):
        d = density_symbol(law)
        surv = survival_symbol(law)
        for s in (0.25, 1.0, 7.0):
            assert surv(s) == pytest.approx((1.0 - d(s)) / s, abs=1e-14)


def test_marginal_value_by_hand():
    # survival/(1 - v d) at s = 1 for unit-rate exponential, v = 1/2:
    # (1/2) / (1 - 1/4) = 2/3
    m = marginal_symbol(Exponential(1.0), 0.5)
    assert m(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_marginal_inverts_to_exponential_mixture():
    # redraw at each renewal: occupancy sums pmf_n v^n, which for
    # exponential waits is exp(-rate (1-v) t)
    lam = 1.0
    for v in (0.0, 0.3, 0.7, 1.0):
        m = marginal_symbol(Exponential(lam), v)
        for t in (0.5, 2.0):
            ref = math.exp(-lam * (1.0 - v) * t)
            assert invert(m, t) == pytest.approx(ref, abs=1e-4)
            assert invert(m, t, method="talbot") == pytest.approx(ref, abs=1e-10)


def test_marginal_weight_domain():
    with pytest.raises(DomainError):
        marginal_symbol(Exponential(1.0), -0.1)
    with pytest.raises(DomainError):
        marginal_symbol(Exponential(1.0), 1.1)


def test_counting_symbol_count_domain():
    with pytest.raises(DomainError):
        counting_symbol(Exponential(1.0), -1)


def test_unsupported_law_rejected():
    # jump laws carry a rate but are no waiting laws
    for law in (object(), ExponentialJumps(2.0)):
        with pytest.raises(DomainError):
            density_symbol(law)


def test_cross_check_flags_oscillatory_original():
    osc = LaplaceSymbol(lambda s: s / (s * s + 1.0), "cosine")
    with pytest.raises(InversionError):
        invert(osc, 2.0)
    # the Talbot contour encloses the imaginary-axis poles and is fine
    assert invert(osc, 2.0, method="talbot") == pytest.approx(math.cos(2.0), abs=1e-8)


def test_cross_check_flags_discontinuous_original():
    step = LaplaceSymbol(lambda s: math.exp(-s) / s, "unit step at 1")
    with pytest.raises(InversionError):
        invert(step, 1.05)


def test_unknown_method_rejected():
    sym = survival_symbol(Exponential(1.0))
    with pytest.raises(DomainError):
        invert(sym, 1.0, method="bromwich")
