"""Tests for inter-event laws, epoch generation, and count distributions."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from ctstat.errors import AccuracyError, DomainError
from ctstat.renewal import (
    CountingPmfTable,
    EpochSequence,
    Exponential,
    MittagLeffler,
    count_at,
    counting_pmf,
    generate_epochs,
    sample_waiting_time,
)
from ctstat.special import ml_survival


def ks_statistic(sorted_sample, cdf_values):
    n = sorted_sample.size
    i = np.arange(1, n + 1)
    return max(
        np.max(np.abs(i / n - cdf_values)),
        np.max(np.abs((i - 1) / n - cdf_values)),
    )


def test_law_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            Exponential(bad)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(DomainError):
            MittagLeffler(bad)


def test_survival_and_mean():
    law = Exponential(2.0)
    assert law.survival(1.5) == pytest.approx(math.exp(-3.0), abs=1e-15)
    assert law.mean() == 0.5

    ml = MittagLeffler(0.7)
    assert ml.survival(2.0) == pytest.approx(ml_survival(0.7, 2.0), abs=1e-14)
    assert math.isinf(ml.mean())
    assert MittagLeffler(1.0).mean() == 1.0
    assert MittagLeffler(1.0).survival(2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-14
    )


def test_sampling_convention_is_inverse_cdf():
    # the draw consumes one uniform u and returns -log(1-u)/rate
    rng = np.random.default_rng(7)
    x = sample_waiting_time(Exponential(2.0), rng)
    u = np.random.default_rng(7).random(1)[0]
    assert x == -math.log1p(-u) / 2.0


def test_unit_order_sampler_matches_exponential():
    a = sample_waiting_time(MittagLeffler(1.0), np.random.default_rng(3), size=50)
    b = sample_waiting_time(Exponential(1.0), np.random.default_rng(3), size=50)
    assert np.array_equal(a, b)


def test_sampler_interface():
    rng = np.random.default_rng(0)
    assert isinstance(sample_waiting_time(Exponential(1.0), rng), float)
    out = sample_waiting_time(MittagLeffler(0.5), rng, size=17)
    assert out.shape == (17,)
    assert np.all(out >= 0.0)
    with pytest.raises(DomainError):
        sample_waiting_time(Exponential(1.0), rng, size=-1)
    with pytest.raises(DomainError):
        sample_waiting_time(Exponential(1.0), np.random.RandomState(0))
    with pytest.raises(DomainError):
        sample_waiting_time(object(), rng)


@pytest.mark.parametrize(
    "law",
    [Exponential(1.0), Exponential(2.5), MittagLeffler(0.4), MittagLeffler(0.7)],
)
def test_sampler_distribution(law):
    n = 30_000
    rng = np.random.default_rng(2024)
    x = np.sort(sample_waiting_time(law, rng, size=n))
    cdf = 1.0 - np.asarray(law.survival(x), dtype=float)
    assert ks_statistic(x, cdf) < 1.63 / math.sqrt(n)


def test_generate_epochs_structure():
    rng = np.random.default_rng(5)
    seq = generate_epochs(Exponential(3.0), rng, horizon=50.0)
    assert isinstance(seq, EpochSequence)
    assert seq.horizon == 50.0
    assert np.all(np.diff(seq.times) > 0.0)
    assert seq.times[-1] <= 50.0
    assert 100 < len(seq) < 220  # mean 150, generous band
    assert seq.count_at(50.0) == len(seq)


def test_generate_epochs_domain():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        generate_epochs(Exponential(1.0), rng, horizon=-1.0)
    with pytest.raises(DomainError):
        generate_epochs(Exponential(1.0), rng, horizon=math.inf)
    empty = generate_epochs(Exponential(1.0), rng, horizon=0.0)
    assert len(empty) == 0
    assert empty.count_at(0.0) == 0


def test_count_at_boundary_inclusive():
    times = np.array([1.0, 2.0, 3.0])
    assert count_at(times, 2.0) == 2
    assert count_at(times, 1.9999) == 1
    assert count_at(times, 0.0) == 0
    assert count_at(np.empty(0), 5.0) == 0


def test_count_at_domain():
    seq = EpochSequence(times=np.array([0.5]), horizon=1.0)
    with pytest.raises(DomainError):
        count_at(seq, 2.0)  # beyond simulated horizon
    with pytest.raises(DomainError):
        count_at(seq, -0.5)


def test_counting_pmf_poisson_closed_form():
    tab = counting_pmf(Exponential(1.5), 2.0, n_max=12)
    assert len(tab) == 13
    ref = poisson.pmf(np.arange(13), 3.0)
    assert np.max(np.abs(tab.probabilities - ref)) < 1e-13
    assert tab.probabilities.sum() + tab.tail_bound == pytest.approx(1.0, abs=1e-12)
    assert tab.mean() == pytest.approx(3.0, abs=1e-3)  # truncated at n_max


def test_counting_pmf_mass_policy():
    tab = counting_pmf(Exponential(1.0), 2.0)
    assert tab.probabilities.sum() >= 1.0 - 1e-6
    assert tab.tail_bound < 1e-5
    assert np.all(tab.probabilities >= 0.0)


def test_counting_pmf_heavy_tail():
    tab = counting_pmf(MittagLeffler(0.7), 1.0)
    s = tab.probabilities.sum()
    assert s >= 1.0 - 1e-6
    # partial sums + probability that the next epoch already arrived = 1
    assert s + tab.tail_bound == pytest.approx(1.0, abs=1e-8)
    assert np.all(tab.probabilities >= 0.0)
    # no events yet exactly when the first wait is still running
    assert tab.probabilities[0] == pytest.approx(ml_survival(0.7, 1.0), abs=1e-10)
    # truncated mean close to t^a / Gamma(1 + a)
    assert tab.mean() == pytest.approx(1.0 / math.gamma(1.7), abs=1e-3)


def test_counting_pmf_unit_order_matches_poisson():
    tab = counting_pmf(MittagLeffler(1.0), 2.0, n_max=10)
    ref = poisson.pmf(np.arange(11), 2.0)
    assert np.max(np.abs(tab.probabilities - ref)) < 1e-9



def test_counting_pmf_unit_order_long_horizons():
    # order one is Exponential(1); its tables once summed to 1.077,
    # 13.08 and 2.99 at these horizons
    for t in (50.0, 100.0, 200.0):
        tab = counting_pmf(MittagLeffler(1.0), t)
        ref = poisson.pmf(np.arange(len(tab)), t)
        assert np.max(np.abs(tab.probabilities - ref)) < 1e-12


def test_counting_pmf_mass_gate_raises():
    # near order one the inverted entries stop conserving mass; the table
    # must raise, carrying itself and its gap, instead of passing through
    with pytest.raises(AccuracyError) as info:
        counting_pmf(MittagLeffler(0.95), 100.0)
    assert info.value.est_error > 1e-6
    total = info.value.value.sum()
    assert abs(1.0 - total) > 1e-6

def test_counting_pmf_at_zero():
    tab = counting_pmf(MittagLeffler(0.6), 0.0)
    assert np.array_equal(tab.probabilities, np.array([1.0]))
    assert tab.tail_bound == 0.0
    tab = counting_pmf(Exponential(2.0), 0.0, n_max=3)
    assert np.array_equal(tab.probabilities, np.array([1.0, 0.0, 0.0, 0.0]))


def test_counting_pmf_domain():
    with pytest.raises(DomainError):
        counting_pmf(Exponential(1.0), -1.0)
    with pytest.raises(DomainError):
        counting_pmf(Exponential(1.0), 1.0, n_max=-2)
    with pytest.raises(DomainError):
        counting_pmf(object(), 1.0)


def test_pmf_table_cumulative():
    tab = counting_pmf(Exponential(1.0), 1.0, n_max=5)
    cum = tab.cumulative()
    assert cum.shape == (6,)
    assert np.all(np.diff(cum) >= 0.0)
    assert cum[-1] == pytest.approx(tab.probabilities.sum(), abs=1e-15)
