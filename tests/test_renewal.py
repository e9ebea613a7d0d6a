"""Tests for inter-event laws, epoch generation, and count distributions."""

import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import poisson

import ctstat.laplace
from ctstat.errors import AccuracyError, DomainError
from ctstat.laplace import LaplaceSymbol, counting_symbol, invert
from ctstat.renewal import (
    _PMF_BLOCK,
    _poisson_pmf,
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


def entry_reference(law, t, n_max=None, mass_target=1.0 - 1e-6):
    """The count table one Talbot inversion per entry, cut by a scalar
    running sum: the direct form of the block route in the package.
    Returns the table and whether its mass gate fails."""
    if isinstance(law, Exponential) or law.order == 1.0 or t == 0.0:
        mu = getattr(law, "rate", 1.0) * t
        entry = lambda n: float(_poisson_pmf(mu, np.asarray(n)))
        tail = lambda n: float(gammainc(n + 1.0, mu))
    else:
        entry = lambda n: max(invert(counting_symbol(law, n), t, method="talbot"), 0.0)

        def tail(n):
            sym = LaplaceSymbol(lambda s: law.density_lt(s) ** (n + 1) / s)
            return min(max(invert(sym, t, method="talbot"), 0.0), 1.0)

    if n_max is not None:
        probs = [entry(n) for n in range(n_max + 1)]
    else:
        probs, acc = [], 0.0
        for n in range(10_001):
            probs.append(entry(n))
            acc += probs[-1]
            if acc >= mass_target:
                break
    table = np.array(probs)
    gap = abs(1.0 - math.fsum(table) - tail(table.size - 1))
    return table, not gap <= 1.0 - mass_target


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


def _table_or_raised(law, t, n_max, mass_target):
    try:
        return counting_pmf(law, t, n_max=n_max, mass_target=mass_target).probabilities, False
    except AccuracyError as exc:
        return exc.value, True


def test_block_tables_match_entry_reference():
    # the block route sums each row of weighted contour nodes in BLAS
    # matrix-vector order, the reference in dot-product order; with node
    # terms ~1e4 times the entry the two differ by up to ~1.2e-13
    rng = np.random.default_rng(20261020)
    orders = rng.uniform(0.3, 0.99, 30)
    times = np.concatenate([[0.0, 0.01, 200.0], np.exp(rng.uniform(math.log(0.01), math.log(200.0), 27))])
    cases = [(MittagLeffler(a), t) for a, t in zip(orders, times)]
    cases += [(law, t) for law in (Exponential(2.5), MittagLeffler(1.0)) for t in (0.0, 3.0, 150.0)]
    raised = 0
    for law, t in cases:
        for n_max, mass_target in ((None, 1.0 - 1e-6), (None, 1.0 - 5e-9), (40, 1.0 - 1e-6)):
            got, got_raised = _table_or_raised(law, t, n_max, mass_target)
            ref, ref_raised = entry_reference(law, t, n_max, mass_target)
            label = f"{law!r}, t={t}, n_max={n_max}, target {mass_target}"
            assert got.size == ref.size, label
            assert got_raised == ref_raised, label
            raised += got_raised
            if not got_raised:
                assert np.max(np.abs(got - ref)) < 2e-13, label
    assert 0 < raised < len(cases)


@pytest.fixture
def invert_calls(monkeypatch):
    """Counts the calls that reach ``ctstat.laplace.invert``."""
    calls = []
    monkeypatch.setattr(ctstat.laplace, "invert", lambda *a, **k: calls.append(1) or invert(*a, **k))
    return calls


def test_counting_pmf_explicit_n_max_spans_bounded_blocks(invert_calls):
    # 20001 entries come in blocks of at most _PMF_BLOCK rows, one
    # contour call each, plus one for the tail
    law, t, n_max = MittagLeffler(0.7), 5.0, 20_000
    tab = counting_pmf(law, t, n_max=n_max)
    assert len(tab) == n_max + 1
    assert len(invert_calls) == math.ceil((n_max + 1) / _PMF_BLOCK) + 1
    edges = [k * _PMF_BLOCK + d for k in range(1, 5) for d in (-1, 0)] + [0, 1, n_max]
    for n in edges:
        ref = max(invert(counting_symbol(law, n), t, method="talbot"), 0.0)
        assert abs(tab.probabilities[n] - ref) < 2e-13, f"entry {n}"


def test_counting_pmf_contour_calls_per_table(invert_calls):
    # a 318-entry table costs one call per block and one for the tail
    tab = counting_pmf(MittagLeffler(0.7), 500.0)
    assert len(tab) >= 300
    assert len(invert_calls) <= 4


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
