"""Tests for the path simulator, the ECDF, and the KS comparison."""

import math

import numpy as np
import pytest

from ctstat.errors import DomainError
from ctstat.mc import (
    Ecdf,
    KsReport,
    SimulationPlan,
    build_ecdf,
    ks_distance,
    simulate_chain,
    simulate_statistic,
)
from ctstat.renewal import Exponential, MittagLeffler
from ctstat.special import ml_survival
from ctstat.stats import (
    ExponentialJumps,
    StatisticKind,
    TransitionMatrix,
    max_cdf,
    semi_markov_marginal,
    sum_cdf_series,
)

ABSORBING = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])


def test_plan_validation():
    good = dict(
        kind=StatisticKind.SUM,
        jump_law=ExponentialJumps(1.0),
        ie_law=Exponential(1.0),
        t=1.0,
    )
    SimulationPlan(**good)
    with pytest.raises(DomainError):
        SimulationPlan(**{**good, "kind": "sum"})
    with pytest.raises(DomainError):
        SimulationPlan(**{**good, "jump_law": 3.0})
    with pytest.raises(DomainError):
        SimulationPlan(**{**good, "ie_law": object()})
    with pytest.raises(DomainError):
        SimulationPlan(**{**good, "t": -1.0})
    with pytest.raises(DomainError):
        SimulationPlan(**good, n_paths=0)
    with pytest.raises(DomainError):
        SimulationPlan(**good, master_seed=-1)
    with pytest.raises(DomainError):
        SimulationPlan(**good, master_seed=1 << 64)
    with pytest.raises(DomainError):
        SimulationPlan(**good, master_seed=1.5)


def test_zero_horizon_gives_zero_samples():
    plan = SimulationPlan(
        StatisticKind.MAX, ExponentialJumps(1.0), Exponential(1.0), 0.0, 500, 9
    )
    assert np.all(simulate_statistic(plan) == 0.0)


def test_seed_determinism_and_worker_equality():
    plan = SimulationPlan(
        StatisticKind.SUM, ExponentialJumps(1.0), MittagLeffler(0.7), 1.5, 4000, 123
    )
    a = simulate_statistic(plan)
    b = simulate_statistic(plan)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0.0)  # sorted output
    other = SimulationPlan(
        StatisticKind.SUM, ExponentialJumps(1.0), MittagLeffler(0.7), 1.5, 4000, 124
    )
    assert not np.array_equal(a, simulate_statistic(other))


def test_numpy_integer_seed_matches_int_seed():
    # any integer type the plan accepts must key the same streams
    args = (StatisticKind.MAX, ExponentialJumps(1.0), Exponential(1.0), 2.0, 5000)
    a = simulate_statistic(SimulationPlan(*args, 7))
    b = simulate_statistic(SimulationPlan(*args, np.uint64(7)))
    assert np.array_equal(a, b)


def test_compound_sum_moments():
    # compound Poisson with unit exponential jumps: mean rt, variance 2rt
    plan = SimulationPlan(
        StatisticKind.SUM, ExponentialJumps(1.0), Exponential(1.0), 2.0, 20_000, 42
    )
    s = simulate_statistic(plan)
    sigma_mean = math.sqrt(4.0 / s.size)
    assert abs(float(s.mean()) - 2.0) < 3.0 * sigma_mean


def test_atom_at_zero_matches_no_event_probability():
    t = 1.5
    for law in (Exponential(1.0), MittagLeffler(0.7)):
        p0 = float(law.survival(t))
        for kind in (StatisticKind.SUM, StatisticKind.MAX):
            plan = SimulationPlan(kind, ExponentialJumps(1.0), law, t, 20_000, 7)
            s = simulate_statistic(plan)
            frac = float(np.mean(s == 0.0))
            band = 3.0 * math.sqrt(p0 * (1.0 - p0) / s.size)
            assert abs(frac - p0) < band, f"{law!r} {kind}: {frac} vs {p0}"


def test_max_statistic_agrees_with_closed_form():
    jumps = ExponentialJumps(1.0)
    plan = SimulationPlan(StatisticKind.MAX, jumps, MittagLeffler(0.7), 1.5, 20_000, 42)
    samples = simulate_statistic(plan)
    report = ks_distance(
        build_ecdf(samples), lambda w: max_cdf(0.7, jumps, 1.5, w)
    )
    assert report.passed, f"KS {report.statistic_d:.5f} >= {report.threshold:.5f}"


def test_sum_statistic_agrees_with_series():
    jumps = ExponentialJumps(1.0)
    plan = SimulationPlan(StatisticKind.SUM, jumps, Exponential(1.0), 2.0, 20_000, 42)
    samples = simulate_statistic(plan)
    report = ks_distance(
        build_ecdf(samples),
        lambda u: sum_cdf_series(jumps, 1.0, 2.0, u, tol=1e-8),
    )
    assert report.passed, f"KS {report.statistic_d:.5f} >= {report.threshold:.5f}"


def test_chain_validation():
    with pytest.raises(DomainError):
        simulate_chain([[1.0]], 0, Exponential(1.0), [0.5], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 2, Exponential(1.0), [0.5], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 0, object(), [0.5], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 0, Exponential(1.0), [], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 0, Exponential(1.0), [1.0, 0.5], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 0, Exponential(1.0), [-1.0], 10, 1)
    with pytest.raises(DomainError):
        simulate_chain(ABSORBING, 0, Exponential(1.0), [0.5], 0, 1)


def test_chain_at_time_zero_is_exact():
    occ = simulate_chain(ABSORBING, 0, Exponential(1.0), [0.0], 500, 3)
    assert occ[0, 0] == 1.0
    assert occ[1, 0] == 0.0


def test_absorbing_chain_exponential_waits():
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    n = 20_000
    occ = simulate_chain(ABSORBING, 0, Exponential(1.0), grid, n, 7)
    assert occ.shape == (2, 4)
    assert np.allclose(occ.sum(axis=0), 1.0)
    ref = np.exp(-grid)
    band = 3.0 * np.sqrt(np.maximum(ref * (1.0 - ref), 1e-12) / n)
    assert np.all(np.abs(occ[0] - ref) <= band + 1e-12)


def test_absorbing_chain_heavy_tailed_waits():
    grid = np.array([0.5, 1.0, 2.0])
    n = 20_000
    occ = simulate_chain(ABSORBING, 0, MittagLeffler(0.7), grid, n, 11)
    ref = ml_survival(0.7, grid)
    band = 3.0 * np.sqrt(ref * (1.0 - ref) / n)
    assert np.all(np.abs(occ[0] - ref) <= band)


def test_symmetric_chain_matches_marginal():
    # coin-flip switching: the simulated occupancy must agree with the
    # count-mixture marginal, which here is (1 + e^{-t}) / 2; a 3-state
    # chain without absorption checks the redraw over more than two rows
    coin = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    three = TransitionMatrix([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]])
    grid = np.array([0.5, 1.0, 2.0])
    n = 20_000
    for q in (coin, three):
        occ = simulate_chain(q, 0, Exponential(1.0), grid, n, 21)
        ref = np.array(
            [semi_markov_marginal(q, 0, Exponential(1.0), t, 1e-10)[0] for t in grid]
        )
        if q is coin:
            assert np.max(np.abs(ref - 0.5 * (1.0 + np.exp(-grid)))) < 1e-9
        band = 3.0 * np.sqrt(ref * (1.0 - ref) / n)
        assert np.all(np.abs(occ[0] - ref) <= band), f"{q.matrix}"


def test_ecdf_evaluator():
    e = build_ecdf([3.0, 1.0, 2.0, 2.0])
    assert np.array_equal(e.sorted_samples, [1.0, 2.0, 2.0, 3.0])
    assert e.n == 4
    assert e(0.5) == 0.0
    assert e(1.0) == 0.25  # right continuous: the step sits at the sample
    assert e(1.999) == 0.25
    assert e(2.0) == 0.75
    assert e(10.0) == 1.0
    out = e(np.array([1.0, 2.5]))
    assert np.array_equal(out, [0.25, 0.75])
    with pytest.raises(DomainError):
        build_ecdf([])
    with pytest.raises(DomainError):
        build_ecdf([1.0, math.nan])
    with pytest.raises(DomainError):
        build_ecdf([[1.0, 2.0]])


def test_ks_matches_classical_formula_without_ties():
    rng = np.random.default_rng(5)
    x = rng.random(5000)
    report = ks_distance(build_ecdf(x), lambda u: u)
    xs = np.sort(x)
    n = xs.size
    i = np.arange(1, n + 1)
    classical = max(
        float(np.max(np.abs(i / n - xs))),
        float(np.max(np.abs((i - 1) / n - xs))),
    )
    assert report.statistic_d == pytest.approx(classical, abs=1e-15)
    assert report.threshold == pytest.approx(1.63 / math.sqrt(n), abs=1e-15)


def test_ks_ignores_atom_side_at_ties():
    # half the mass sits at zero; a perfect model must not be charged
    # for the unobservable left limit at the atom
    samples = np.concatenate([np.zeros(500), np.linspace(1e-3, 1.0, 500)])

    def cdf(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0.0, np.minimum(0.5 + 0.5 * u, 1.0), 0.0)

    report = ks_distance(build_ecdf(samples), cdf)
    assert report.statistic_d < 0.05


def test_ks_single_sample_at_median():
    report = ks_distance(
        build_ecdf([0.0]),
        lambda u: np.full_like(np.asarray(u, dtype=float), 0.5),
    )
    assert report.statistic_d == 0.5
    # a single draw can never beat the distance threshold, which
    # exceeds one at n = 1
    assert report.threshold > 1.0
    assert report.passed


def test_ks_threshold_calibration():
    # at the default threshold a correct model should fail about 1% of
    # runs; over 100 seeds more than 3 failures is implausible
    fails = 0
    for seed in range(100):
        u = np.random.default_rng(seed).random(20_000)
        if not ks_distance(build_ecdf(u), lambda q: q).passed:
            fails += 1
    assert fails <= 3, f"{fails} failures out of 100"


def test_ks_validation():
    e = build_ecdf([0.2, 0.4])
    with pytest.raises(DomainError):
        ks_distance([0.2, 0.4], lambda u: u)
    with pytest.raises(DomainError):
        ks_distance(e, lambda u: np.array([0.1]))
    with pytest.raises(DomainError):
        ks_distance(e, lambda u: np.asarray(u) + 5.0)
    with pytest.raises(DomainError):
        ks_distance(e, lambda u: u, threshold=0.0)
    report = ks_distance(e, lambda u: u, threshold=0.9)
    assert isinstance(report, KsReport)
    assert report.passed
