"""Tests for jump laws and the sum/max statistics of the event stream."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

import ctstat
from ctstat.errors import AccuracyError, CapabilityError, DomainError
from ctstat.laplace import invert, marginal_symbol
from ctstat.relax import RelaxationProblem, solve_relaxation
from ctstat.renewal import Exponential, MittagLeffler, counting_pmf
from ctstat.special import ml_one_param
from ctstat.stats import (
    DegenerateJumps,
    ExponentialJumps,
    ParetoJumps,
    StatisticKind,
    TransitionMatrix,
    UniformJumps,
    max_cdf,
    mixture_cdf,
    semi_markov_marginal,
    statistic_transform,
    sum_cdf_series,
)
from ctstat.stats import _in_resolvent_domain, _lattice_mixture, _power_rows, _sum_mixture

# Sum-statistic cdf for unit exponential waits and unit exponential
# jumps at t = 2, from 60-digit numerical inversion of the compound
# transform exp(-r t (1 - g(y))) / y over the jump variable.
EXP_SUM_ORACLE = [
    (0.25, 0.20278221636362703),
    (1.0, 0.39429685889233157),
    (2.0, 0.60350096061199335),
    (5.0, 0.91393447760021258),
]

# Same statistic with uniform(0, 1] jumps, from the exact count mixture
# evaluated term by term in 60-digit arithmetic (the alternating n-fold
# polynomial is exact there).  rt = 2 and rt = 6: few and many counts.
UNIF_SUM_ORACLE_RT2 = [
    (0.5, 0.30850832255367104),
    (1.0, 0.57549311069894668),
    (2.0, 0.88133797692129846),
    (4.0, 0.99722849334685492),
]
UNIF_SUM_ORACLE_RT6 = [
    (1.0, 0.061701433643096852),
    (3.0, 0.53526546419798064),
    (6.0, 0.97159314631131882),
]

# n-fold cdf of uniform(0, 1] jumps, exact rational evaluation; checks
# the extended-precision Irwin-Hall oracle below
IRWIN_HALL_ORACLE = [
    (2, 0.75, 0.28125),
    (2, 1.0, 0.5),
    (5, 2.5, 0.5),
    (10, 3.2, 0.023784362880169324),
    (15, 7.0, 0.32887986932232964),
]


def irwin_hall_mp(n, y):
    """P(U_1 + .. + U_n <= y), U_i uniform on (0, 1], by the exact
    alternating sum; call inside a raised mpmath precision."""
    if n == 0:
        return mpmath.mpf(1)
    y = mpmath.mpf(y)
    top = min(n, int(mpmath.floor(y)))
    acc = mpmath.fsum(
        (-1) ** k * mpmath.binomial(n, k) * (y - k) ** n for k in range(top + 1)
    )
    return acc / mpmath.factorial(n)


def irwin_hall_poisson_mp(mu, upper, u, dps=40):
    """P(S <= u) for a Poisson(mu) sum of uniform(0, upper] jumps."""
    with mpmath.workdps(dps):
        y = mpmath.mpf(u) / mpmath.mpf(upper)
        weight = mpmath.exp(-mpmath.mpf(mu))
        total, n = weight, 0
        # F*n(y) <= y^n / n!, so the terms left are bounded by the last
        while n < mu or weight * min(1, y**n / mpmath.factorial(n)) > 1e-30:
            n += 1
            weight *= mpmath.mpf(mu) / n
            total += weight * irwin_hall_mp(n, y)
        return float(total)


def ml_series_mp(a, z, dps=60):
    """E_a(z) by its Taylor series in extended precision.

    The largest term grows like exp(|z|^(1/a)); 60 digits leave over 30
    after the cancellation for the arguments used here.
    """
    with mpmath.workdps(dps):
        z, a = mpmath.mpf(z), mpmath.mpf(a)
        total, k = mpmath.mpf(0), 0
        peak = int(abs(z) ** (1 / a) / a) + 1
        while True:
            term = z**k / mpmath.gamma(a * k + 1)
            total += term
            if k > peak and abs(term) < mpmath.mpf(10) ** (-30):
                return float(total)
            k += 1


def ks_statistic(sorted_sample, cdf_values):
    n = sorted_sample.size
    i = np.arange(1, n + 1)
    return max(
        np.max(np.abs(i / n - cdf_values)),
        np.max(np.abs((i - 1) / n - cdf_values)),
    )


def test_jump_law_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            ExponentialJumps(bad)
        with pytest.raises(DomainError):
            UniformJumps(bad)
        with pytest.raises(DomainError):
            DegenerateJumps(bad)
        with pytest.raises(DomainError):
            ParetoJumps(scale=bad)
        with pytest.raises(DomainError):
            ParetoJumps(exponent=bad)


def test_jump_law_pointwise():
    ej = ExponentialJumps(2.0)
    assert float(ej.cdf(1.0)) == pytest.approx(-math.expm1(-2.0), abs=1e-15)
    assert float(ej.sf(0.5)) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert float(ej.pdf(0.5)) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
    assert float(ej.cdf(-1.0)) == 0.0
    assert ej.mean == 0.5

    uj = UniformJumps(4.0)
    assert float(uj.cdf(1.0)) == 0.25
    assert float(uj.cdf(5.0)) == 1.0
    assert float(uj.pdf(2.0)) == 0.25
    assert float(uj.pdf(4.5)) == 0.0
    assert uj.mean == 2.0

    pj = ParetoJumps(1.5, 2.0)
    assert float(pj.cdf(1.0)) == 0.0
    assert float(pj.sf(3.0)) == 0.25
    assert float(pj.pdf(3.0)) == pytest.approx(2.0 * 1.5**2 / 3.0**3, abs=1e-15)
    assert pj.mean == 3.0
    assert math.isinf(ParetoJumps(1.0, 0.7).mean)

    dj = DegenerateJumps(2.5)
    assert float(dj.cdf(2.49)) == 0.0
    assert float(dj.cdf(2.5)) == 1.0
    assert float(dj.sf(2.49)) == 1.0
    assert dj.mean == 2.5


def test_jump_transforms():
    assert ExponentialJumps(2.0).lst(3.0) == pytest.approx(0.4, abs=1e-15)
    # uniform transform at 0 is 1, elsewhere (1 - e^{-sb})/(sb)
    uj = UniformJumps(2.0)
    assert float(uj.lst(0.0)) == 1.0
    s = 1.5
    assert float(uj.lst(s)) == pytest.approx(
        (1.0 - math.exp(-3.0)) / 3.0, abs=1e-15
    )
    z = uj.lst(1.0 + 1.0j)
    ref = (1.0 - np.exp(-(2.0 + 2.0j))) / (2.0 + 2.0j)
    assert abs(complex(z) - complex(ref)) < 1e-14
    assert complex(DegenerateJumps(0.5).lst(2.0 + 0j)) == pytest.approx(
        complex(np.exp(-1.0 - 0j)), abs=1e-15
    )
    with pytest.raises(CapabilityError):
        ParetoJumps(1.0, 1.5).lst(1.0)


def test_erlang_nfold():
    # the mixture over the one-hot table e_n is the n-fold cdf
    ej = ExponentialJumps(1.5)
    x = np.array([0.5, 2.0, 7.0])
    for n in (1, 4, 9):
        assert np.allclose(ej.count_mixture(np.eye(n + 1)[n], x)[0], gammainc(n, 1.5 * x), atol=1e-15)
    assert float(ej.count_mixture(np.eye(4)[3], 0.0)[0]) == 0.0
    assert float(ej.count_mixture(np.eye(1)[0], 5.0)[0]) == 1.0


def test_degenerate_nfold_is_lattice():
    dj = DegenerateJumps(0.5)
    x = np.array([0.0, 0.49, 0.5, 1.49, 1.5])
    assert np.array_equal(dj.count_mixture(np.eye(4)[3], x)[0], [0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(dj.count_mixture(np.eye(1)[0], x)[0], np.ones(5))


def test_jump_sampling_matches_cdf():
    rng = np.random.default_rng(424)
    n = 30_000
    threshold = 1.63 / math.sqrt(n)
    laws = [
        ExponentialJumps(2.0),
        UniformJumps(3.0),
        ParetoJumps(1.5, 2.0),
        ParetoJumps(1.0, 0.7),
    ]
    for law in laws:
        x = np.sort(law.sample(rng, n))
        d = ks_statistic(x, law.cdf(x))
        assert d < threshold, f"{law!r}: KS {d:.5f}"
    draws = DegenerateJumps(2.5).sample(rng, 4)
    assert np.array_equal(draws, np.full(4, 2.5))


def test_jump_sampling_interface():
    rng = np.random.default_rng(1)
    law = ExponentialJumps(1.0)
    assert isinstance(law.sample(rng), float)
    assert law.sample(rng, 7).shape == (7,)
    with pytest.raises(DomainError):
        law.sample(rng, -1)
    with pytest.raises(DomainError):
        law.sample(np.random.RandomState(0))


def test_sum_cdf_exponential_jumps():
    jumps = ExponentialJumps(1.0)
    u = np.array([pt for pt, _ in EXP_SUM_ORACLE])
    got = sum_cdf_series(jumps, 1.0, 2.0, u, tol=1e-8)
    ref = np.array([val for _, val in EXP_SUM_ORACLE])
    assert np.max(np.abs(got - ref)) < 1e-8
    # scalar in, float out
    v = sum_cdf_series(jumps, 1.0, 2.0, 1.0)
    assert isinstance(v, float)
    assert v == pytest.approx(EXP_SUM_ORACLE[1][1], abs=1e-8)


def test_sum_cdf_uniform_jumps_exact_path():
    got = sum_cdf_series(
        UniformJumps(1.0),
        1.0,
        2.0,
        np.array([pt for pt, _ in UNIF_SUM_ORACLE_RT2]),
        tol=1e-8,
    )
    ref = np.array([val for _, val in UNIF_SUM_ORACLE_RT2])
    assert np.max(np.abs(got - ref)) < 1e-8


def test_sum_cdf_uniform_jumps_beyond_exact_cap():
    # rate * t = 6 puts weight on counts past 15, where an n-fold
    # polynomial in double precision would lose its digits
    got = sum_cdf_series(
        UniformJumps(1.0),
        3.0,
        2.0,
        np.array([pt for pt, _ in UNIF_SUM_ORACLE_RT6]),
        tol=1e-8,
    )
    ref = np.array([val for _, val in UNIF_SUM_ORACLE_RT6])
    assert np.max(np.abs(got - ref)) < 1e-8


def test_sum_cdf_degenerate_jumps_is_count_cdf():
    table = counting_pmf(Exponential(2.0), 1.5, mass_target=1.0 - 1e-10)
    cum = np.cumsum(table.probabilities)
    u = np.array([0.0, 0.49, 0.5, 1.74, 2.0])
    got = sum_cdf_series(DegenerateJumps(0.5), 2.0, 1.5, u, tol=1e-8)
    ref = np.array([cum[0], cum[0], cum[1], cum[3], cum[4]])
    assert np.max(np.abs(got - ref)) < 1e-9


def test_sum_mixture_heavy_tailed_waits():
    # partial sums of the mixture, checked against a directly assembled
    # table for Mittag-Leffler waits
    waits = MittagLeffler(0.7)
    jumps = ExponentialJumps(1.0)
    table = counting_pmf(waits, 1.0, mass_target=1.0 - 1e-9)
    u = np.array([0.5, 2.0, 6.0])
    direct = table.probabilities[0] * np.ones_like(u)
    for n in range(1, len(table.probabilities)):
        direct += table.probabilities[n] * gammainc(n, u)
    got = mixture_cdf(StatisticKind.SUM, jumps, waits, 1.0, u, tol=1e-7)
    assert np.max(np.abs(got - direct)) < 1e-7


def test_grid_engine_against_quadrature():
    # the two-fold Pareto cdf has no closed form; adaptive quadrature of
    # int F(u - y) dF(y) is an independent reference for the lattice
    pj = ParetoJumps(1.0, 2.5)

    def two_fold(u):
        if u <= 2.0:
            return 0.0
        val, _ = quad(
            lambda y: float(pj.cdf(u - y)) * float(pj.pdf(y)),
            1.0,
            u - 1.0,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return val

    u = np.array([2.5, 4.0, 8.0])
    pmf = np.array([0.0, 0.0, 1.0])
    got, est = _lattice_mixture(pmf, pj, u, 1e-7)
    ref = np.array([two_fold(x) for x in u])
    assert est < 1e-7
    assert np.max(np.abs(got - ref)) < 1e-7


def test_irwin_hall_oracle_exact_values():
    with mpmath.workdps(40):
        for n, x, ref in IRWIN_HALL_ORACLE:
            assert float(irwin_hall_mp(n, x)) == pytest.approx(ref, abs=1e-16)


def test_lattice_uniform_poisson_against_irwin_hall():
    # bench-shaped: uniform(0, 1.3] jumps, Poisson(18) counts, 101 levels
    # over the bulk of the law, against the exact mixture in 40 digits
    tol = 1e-8
    u = np.linspace(0.0, 16.6, 101)
    got = sum_cdf_series(UniformJumps(1.3), 1.0, 18.0, u, tol=tol)
    ref = np.array([irwin_hall_poisson_mp(18.0, 1.3, x) for x in u])
    assert np.max(np.abs(got - ref)) < tol


def test_lattice_uniform_mittag_leffler_against_prabhakar(bench_oracles):
    # heavy-tailed counts put large weight on one jump, where the
    # single-jump term must be exact; the oracle mixes cardinal
    # B-splines over the Prabhakar pmf
    tol = 1e-8
    u = np.linspace(0.0, 36.0, 101)
    got = mixture_cdf(StatisticKind.SUM, UniformJumps(1.0), MittagLeffler(0.7), 50.0, u, tol=tol)
    pmf = bench_oracles.fractional_pmf_cover(0.7, 50.0)
    ref = bench_oracles.irwin_hall_mixture_cdf(pmf, 1.0, u)
    assert np.max(np.abs(got - ref)) < tol


def test_lattice_off_node_reads_within_estimate(bench_oracles):
    table = counting_pmf(Exponential(1.0), 18.0, mass_target=1.0 - 1e-10)
    u = np.random.default_rng(77).uniform(0.0, 16.6, 200)
    got, est = _lattice_mixture(table.probabilities, UniformJumps(1.3), u, 1e-8)
    ref = bench_oracles.irwin_hall_mixture_cdf(table.probabilities, 1.3, u)
    assert est < 1e-8
    assert np.max(np.abs(got - ref)) <= est


def test_lattice_off_node_values_at_tight_tolerance():
    # off-node reads carry their own interpolation error, which the
    # estimate must count at a tol far below the default
    tol = 1e-11
    u = np.random.default_rng(41).uniform(0.0, 6.0, 16)
    for mu in (2.0, 5.0):
        try:
            got = sum_cdf_series(UniformJumps(1.0), 1.0, mu, u, tol=tol)
        except AccuracyError as exc:
            assert exc.est_error > tol
            continue
        ref = np.array([irwin_hall_poisson_mp(mu, 1.0, x, dps=50) for x in u])
        err = np.max(np.abs(got - ref))
        assert err < tol, f"Poisson({mu}): off by {err:.2e}"


def test_lattice_far_beyond_bounded_jumps(bench_oracles):
    # u spans 1100 jump widths, but sums of the table's counts end within
    # a few dozen; the lattice stops there and the cdf stays flat beyond
    tol = 1e-8
    u = np.concatenate([np.linspace(0.0, 11.0, 101), [0.025, 0.073]])
    got = sum_cdf_series(UniformJumps(0.01), 1.0, 2.0, u, tol=tol)
    ref = bench_oracles.irwin_hall_mixture_cdf(bench_oracles.poisson_pmf_cover(2.0), 0.01, u)
    assert np.max(np.abs(got - ref)) < tol

def test_lattice_unreachable_tolerance_raises_with_values():
    u = np.linspace(0.0, 3.0, 7)
    with pytest.raises(AccuracyError) as info:
        sum_cdf_series(UniformJumps(1.0), 1.0, 2.0, u, tol=1e-14)
    assert info.value.est_error > 1e-14
    assert info.value.value.shape == u.shape
    ref = np.array([irwin_hall_poisson_mp(2.0, 1.0, x) for x in u])
    assert np.max(np.abs(info.value.value - ref)) < 1e-9


def test_sum_cdf_pareto_grid_path_vs_sampling():
    pj = ParetoJumps(1.0, 2.5)
    u = np.array([1.5, 3.0, 6.0, 10.0])
    got = sum_cdf_series(pj, 1.0, 2.0, u, tol=1e-6)

    rng = np.random.default_rng(2024)
    n_paths = 200_000
    counts = rng.poisson(2.0, n_paths)
    totals = np.zeros(n_paths)
    for n in range(1, int(counts.max()) + 1):
        active = counts >= n
        totals[active] += pj.sample(rng, int(active.sum()))
    for point, value in zip(u, got):
        emp = float(np.mean(totals <= point))
        se = math.sqrt(max(emp * (1.0 - emp), 1e-6) / n_paths)
        assert abs(value - emp) < 5.0 * se


def test_sum_cdf_pareto_two_jump_range_against_quadrature():
    # below three scales at most two jumps fit, so the cdf is
    # e^-mu (1 + mu F(u) + mu^2/2 F*2(u)) with F*2 a single integral;
    # just past two scales the lattice values curve hardest between nodes
    scale, exponent, mu = 0.779286, 1.65, 1.5
    pj = ParetoJumps(scale, exponent)

    def cdf(x):
        return 1.0 - (scale / x) ** exponent if x >= scale else 0.0

    def two_fold(x):
        if x <= 2.0 * scale:
            return 0.0
        dens = lambda y: exponent * scale**exponent / y ** (exponent + 1.0) * cdf(x - y)
        return quad(dens, scale, x - scale, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    tol = 1e-8
    u = np.concatenate([2.0 * scale + scale * np.array([0.003, 0.011, 0.05]),
                        np.linspace(1.0, 2.3, 9)])
    got = sum_cdf_series(pj, 0.75, mu / 0.75, u, tol=tol)
    ref = np.array([math.exp(-mu) * (1.0 + mu * cdf(x) + 0.5 * mu * mu * two_fold(x)) for x in u])
    err = np.max(np.abs(got - ref))
    assert err < tol, f"off by {err:.2e}"


def test_sum_cdf_validation_and_failure():
    waits = Exponential(1.0)
    jumps = ExponentialJumps(1.0)
    with pytest.raises(DomainError):
        sum_cdf_series(jumps, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        sum_cdf_series(jumps, 1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        sum_cdf_series(jumps, 1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        sum_cdf_series(jumps, 1.0, 1.0, 1.0, tol=0.0)
    with pytest.raises(DomainError):
        mixture_cdf(StatisticKind.SUM, 3.5, waits, 1.0, 1.0)
    with pytest.raises(DomainError):
        mixture_cdf("sum", jumps, waits, 1.0, 1.0)
    # a short table leaves too much count mass unaccounted for
    short = counting_pmf(waits, 2.0, n_max=3)
    with pytest.raises(AccuracyError) as info:
        _sum_mixture(short, jumps, 1.0, 1e-8)
    assert info.value.est_error > 1e-8


def test_sum_cdf_at_zero_time_and_zero_level():
    jumps = ExponentialJumps(1.0)
    assert sum_cdf_series(jumps, 1.0, 0.0, 5.0) == pytest.approx(1.0, abs=1e-12)
    # P(S <= 0) is the no-event probability
    assert sum_cdf_series(jumps, 1.0, 2.0, 0.0) == pytest.approx(
        math.exp(-2.0), abs=1e-9
    )


def test_max_cdf_double_exponential_reduction():
    # at order one the stream is unit-rate Poisson, and exponential
    # jumps then give exp(-t * exp(-w))
    jumps = ExponentialJumps(1.0)
    ts = np.linspace(0.25, 5.0, 20)
    ws = np.linspace(0.25, 5.0, 20)
    worst = 0.0
    for t in ts:
        got = max_cdf(1.0, jumps, t, ws)
        ref = np.exp(-t * np.exp(-ws))
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-10
    assert max_cdf(1.0, jumps, 3.0, 1.0) == pytest.approx(
        math.exp(-3.0 * math.exp(-1.0)), abs=1e-12
    )


def test_max_cdf_matches_count_mixture():
    order = 0.7
    jumps = ExponentialJumps(1.0)
    t = 1.5
    table = counting_pmf(MittagLeffler(order), t, mass_target=1.0 - 1e-10)
    w = np.array([0.3, 1.0, 2.5])
    fw = jumps.cdf(w)
    direct = np.zeros_like(w)
    for n, p in enumerate(table.probabilities):
        direct += p * fw**n
    got = max_cdf(order, jumps, t, w)
    assert np.max(np.abs(got - direct)) < 1e-8
    # the general mixture entry point shares the generating-function
    # route of max_cdf, so the pmf sum is its oracle as well
    mixed = mixture_cdf(StatisticKind.MAX, jumps, MittagLeffler(order), t, w)
    assert np.max(np.abs(mixed - direct)) < 1e-8


def test_max_cdf_conventions():
    jumps = ExponentialJumps(1.0)
    # at w = 0 only the empty stream survives
    assert max_cdf(1.0, jumps, 2.0, 0.0) == pytest.approx(
        math.exp(-2.0), abs=1e-14
    )
    assert max_cdf(0.6, jumps, 0.0, 3.0) == 1.0
    # below the Pareto support the value is still the no-event mass
    assert max_cdf(1.0, ParetoJumps(2.0, 1.5), 2.0, 1.0) == pytest.approx(
        math.exp(-2.0), abs=1e-14
    )
    out = max_cdf(0.8, jumps, 1.0, np.array([[0.5, 1.0], [2.0, 4.0]]))
    assert out.shape == (2, 2)
    assert np.all(np.diff(out.ravel()) > 0.0)
    with pytest.raises(DomainError):
        max_cdf(0.8, jumps, -1.0, 1.0)
    with pytest.raises(DomainError):
        max_cdf(0.8, jumps, 1.0, -0.5)
    with pytest.raises(DomainError):
        max_cdf(0.0, jumps, 1.0, 1.0)
    with pytest.raises(DomainError):
        max_cdf(1.2, jumps, 1.0, 1.0)
    with pytest.raises(DomainError):
        max_cdf(0.8, object(), 1.0, 1.0)


def test_statistic_transform_values():
    assert statistic_transform(
        StatisticKind.SUM, ExponentialJumps(1.0), 1.0
    ) == pytest.approx(0.5, abs=1e-15)
    assert statistic_transform(
        StatisticKind.MAX, ExponentialJumps(1.0), 1.0
    ) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert statistic_transform(
        StatisticKind.SUM, DegenerateJumps(2.0), 0.5
    ) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_nfold_transform_is_power_of_statistic_transform():
    # the Laplace-Stieltjes transform of the n-fold sum law, computed by
    # direct quadrature of the Erlang density, must be the n-th power of
    # the one-jump transform value
    jumps = ExponentialJumps(1.3)
    for w in (0.4, 1.0, 2.7):
        g = statistic_transform(StatisticKind.SUM, jumps, w)
        for n in (1, 2, 3):
            val, _ = quad(
                lambda y: math.exp(-w * y)
                * 1.3**n
                * y ** (n - 1)
                * math.exp(-1.3 * y)
                / math.factorial(n - 1),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert abs(val - g**n) < 1e-10


def test_statistic_transform_feeds_marginal_symbol_max():
    jumps = ExponentialJumps(1.0)
    for w in (0.5, 1.5, 3.0):
        g = statistic_transform(StatisticKind.MAX, jumps, w)
        sf = math.exp(-w)
        for t in (0.5, 1.0, 2.5):
            got = invert(marginal_symbol(Exponential(1.3), g), t, method="talbot")
            assert got == pytest.approx(math.exp(-1.3 * sf * t), abs=1e-10)
            got = invert(marginal_symbol(MittagLeffler(0.7), g), t, method="talbot")
            assert got == pytest.approx(max_cdf(0.7, jumps, t, w), abs=1e-10)


def test_statistic_transform_feeds_marginal_symbol_sum():
    jumps = ExponentialJumps(1.0)
    lam = 0.7
    g = statistic_transform(StatisticKind.SUM, jumps, lam)
    sym = marginal_symbol(Exponential(1.0), g)
    for t in (0.5, 1.0, 2.0, 4.0):
        assert invert(sym, t, method="talbot") == pytest.approx(
            math.exp(-t * (1.0 - g)), abs=1e-10
        )
    a = 0.7
    sym = marginal_symbol(MittagLeffler(a), g)
    for t in (0.5, 1.0, 2.0, 4.0):
        ref = ml_one_param(a, -(1.0 - g) * t**a).value
        assert invert(sym, t, method="talbot") == pytest.approx(ref, abs=1e-10)


def test_statistic_transform_validation():
    jumps = ExponentialJumps(1.0)
    with pytest.raises(CapabilityError):
        statistic_transform(StatisticKind.SUM, ParetoJumps(1.0, 1.5), 1.0)
    # the max side only needs the cdf, so Pareto works there
    g = statistic_transform(StatisticKind.MAX, ParetoJumps(1.0, 1.5), 2.0)
    assert g == pytest.approx(1.0 - 2.0**-1.5, abs=1e-15)
    with pytest.raises(DomainError):
        statistic_transform("max", jumps, 1.0)
    with pytest.raises(DomainError):
        statistic_transform(StatisticKind.MAX, jumps, -1.0)
    with pytest.raises(DomainError):
        statistic_transform(StatisticKind.MAX, object(), 1.0)


def test_semi_markov_marginal_absorbing_chain():
    # leaving the start state at the first event and never returning
    # makes staying put the same as seeing no events at all
    q = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
    a = 0.7
    for t in (0.5, 1.0, 2.0):
        ref = ml_one_param(a, -(t**a)).value
        p_aa, p_ab = semi_markov_marginal(q, 0, MittagLeffler(a), t, tol=1e-10)
        assert p_aa == pytest.approx(ref, abs=1e-9)
        assert p_ab == pytest.approx(1.0 - ref, abs=1e-9)


def test_semi_markov_marginal_redraw_chain_closed_forms():
    # keep the state with probability v, else leave for an absorbing
    # elsewhere: occupancy of the start state is the geometric count
    # series, with closed forms for both waiting laws
    for v in (0.0, 0.3, 0.7):
        q = TransitionMatrix([[v, 1.0 - v], [0.0, 1.0]])
        for t in (0.5, 2.0):
            got = semi_markov_marginal(q, 0, Exponential(2.0), t, tol=1e-10)[0]
            assert got == pytest.approx(math.exp(-2.0 * (1.0 - v) * t), abs=1e-9)
            got = semi_markov_marginal(q, 0, MittagLeffler(0.7), t, tol=1e-10)[0]
            ref = ml_one_param(0.7, -(1.0 - v) * t**0.7).value
            assert got == pytest.approx(ref, abs=1e-8)
    # v = 1 never leaves regardless of the waiting law
    q = TransitionMatrix([[1.0, 0.0], [0.0, 1.0]])
    assert semi_markov_marginal(q, 0, Exponential(1.0), 7.0)[0] == pytest.approx(
        1.0, abs=1e-8
    )


def test_semi_markov_marginal_symmetric_chain():
    # symmetric two-state switching: after any event the state is a coin
    # flip, so p_aa(t) = pmf_0 + (1 - pmf_0) / 2 = (1 + e^{-t}) / 2
    q = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    for t in (0.5, 1.0, 3.0):
        got = semi_markov_marginal(q, 0, Exponential(1.0), t, tol=1e-10)[0]
        assert got == pytest.approx(0.5 * (1.0 + math.exp(-t)), abs=1e-9)


def test_semi_markov_marginal_matches_inverted_symbol():
    # the transform-domain marginal with value v corresponds to the
    # redraw chain with keep probability v
    for waits in (Exponential(1.0), MittagLeffler(0.7)):
        for v in (0.0, 0.3, 0.7, 1.0):
            q = TransitionMatrix([[v, 1.0 - v], [0.0, 1.0]])
            sym = marginal_symbol(waits, v)
            for t in (0.5, 2.0):
                got = invert(sym, t, method="talbot")
                ref = semi_markov_marginal(q, 0, waits, t, tol=1e-10)[0]
                assert got == pytest.approx(ref, abs=1e-8)


def test_semi_markov_marginal_rows_sum_to_one():
    q = TransitionMatrix(
        [[0.2, 0.5, 0.3], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]]
    )
    tol = 1e-8
    for waits in (Exponential(1.5), MittagLeffler(0.6)):
        for t in (0.25, 1.0, 4.0):
            for i in range(3):
                total = semi_markov_marginal(q, i, waits, t, tol=tol).sum()
                assert abs(total - 1.0) < 2.0 * tol


def power_rows_reference(matrix, i, n):
    """Rows e_i matrix**k, k < n, one vector-matrix product per power:
    the direct form of the doubling ladder in the package."""
    row = np.eye(matrix.shape[0])[i]
    rows = [row]
    for _ in range(1, n):
        row = row @ matrix
        rows.append(row)
    return np.array(rows)


def _random_chain(rng, k, absorbing=False):
    m = rng.uniform(0.0, 1.0, (k, k)) ** 3
    if absorbing:
        m[-1] = np.eye(k)[-1]
    return m / m.sum(axis=1, keepdims=True)


def test_power_ladder_matches_sequential_products():
    rng = np.random.default_rng(20261020)
    lengths = [1, 2, 3] + [2**j + d for j in (2, 5, 10) for d in (-1, 0, 1)]
    for k in (2, 3, 4, 5):
        for absorbing in (False, True):
            m = _random_chain(rng, k, absorbing)
            for i in range(k):
                for n in lengths:
                    got = _power_rows(m, i, n)
                    ref = power_rows_reference(m, i, n)
                    assert got.shape == ref.shape == (n, k)
                    assert np.max(np.abs(got - ref)) < 1e-13, f"{k} states, i={i}, n={n}"


def test_semi_markov_marginal_matches_sequential_loop():
    # random chains and waits, plus cyclic chains past the resolvent's
    # domain, against the per-count product loop over the same count
    # table.  Rows on the table route match that loop and raise with
    # it; rows on the matrix routes lie within tol of every table that
    # meets its gate
    rng = np.random.default_rng(20261021)
    cases = []
    for case in range(40):
        k = int(rng.integers(2, 6))
        q = TransitionMatrix(_random_chain(rng, k, absorbing=case % 4 == 0))
        waits = MittagLeffler(rng.uniform(0.3, 1.0)) if case % 2 else Exponential(rng.uniform(0.2, 3.0))
        t, i = float(np.exp(rng.uniform(-3.0, math.log(200.0)))), int(rng.integers(k))
        cases.append((q, i, waits, t))
    for k in (3, 6):
        cyclic = TransitionMatrix(np.roll(np.eye(k), 1, axis=1))
        cases += [(cyclic, 1, MittagLeffler(a), t) for a in (0.9, 0.95) for t in (2.0, 150.0)]
    tol, table_cases, raised = 1e-8, 0, 0
    for case, (q, i, waits, t) in enumerate(cases):
        try:
            table = counting_pmf(waits, t, mass_target=1.0 - 0.5 * tol)
        except AccuracyError as exc:
            pmf, fails = exc.value, True
        else:
            pmf, fails = table.probabilities, table.tail_bound > tol
        ref = pmf @ power_rows_reference(q.matrix, i, pmf.size)
        order = getattr(waits, "order", 1.0)
        if order == 1.0 or _in_resolvent_domain(np.eye(q.n_states) - q.matrix, order):
            got = semi_markov_marginal(q, i, waits, t, tol=tol)
            assert got.shape == (q.n_states,)
            if not fails:
                assert np.max(np.abs(got - ref)) < tol, f"case {case}"
            continue
        table_cases += 1
        try:
            got = semi_markov_marginal(q, i, waits, t, tol=tol)
            assert not fails
        except AccuracyError as exc:
            assert fails
            got = exc.value
            raised += 1
        assert got.shape == (q.n_states,)
        assert np.max(np.abs(got - ref)) < 1e-13, f"case {case}"
    assert 0 < raised < table_cases


def test_semi_markov_marginal_error_carries_the_row():
    # the cyclic chain lies outside the resolvent's domain at order
    # 0.95, and its order-0.95 table misses its mass gate at t = 100;
    # the error must carry the chain's row, not the count table
    q = TransitionMatrix(np.roll(np.eye(3), 1, axis=1))
    with pytest.raises(AccuracyError) as info:
        semi_markov_marginal(q, 0, MittagLeffler(0.95), 100.0)
    assert info.value.value.shape == (3,)
    assert info.value.est_error > 1e-8


def test_semi_markov_marginal_takes_an_array_of_times():
    # one row per time, each equal to its scalar call; no event has
    # happened at t = 0, so that row is the start state exactly
    q = TransitionMatrix([[0.2, 0.5, 0.3], [0.0, 0.4, 0.6], [0.5, 0.25, 0.25]])
    ts = np.array([[0.0, 0.5], [3.0, 40.0]])
    for waits in (Exponential(1.5), MittagLeffler(0.6)):
        rows = semi_markov_marginal(q, 1, waits, ts)
        assert rows.shape == (2, 2, 3)
        assert np.array_equal(rows[0, 0], [0.0, 1.0, 0.0])
        for t, row in zip(ts.ravel(), rows.reshape(-1, 3)):
            assert np.max(np.abs(row - semi_markov_marginal(q, 1, waits, t))) < 1e-15
        assert semi_markov_marginal(q, 0, waits, np.array([])).shape == (0, 3)


def test_semi_markov_marginal_validation():
    q = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    waits = Exponential(1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal([[0.5, 0.5], [0.5, 0.5]], 0, waits, 1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal(q, 2, waits, 1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal(q, -1, waits, 1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal(q, 0.5, waits, 1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal(q, 0, waits, -1.0)
    with pytest.raises(DomainError):
        semi_markov_marginal(q, 0, waits, 1.0, tol=0.0)


def test_semi_markov_marginal_long_exponential_horizon_is_exact():
    # Poisson(2e4) counts would overflow a count table; the matrix
    # exponential needs none, and the coin-flip chain has forgotten its
    # start long before t = 2e4
    q = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    got = semi_markov_marginal(q, 0, Exponential(1.0), 2e4)
    assert np.max(np.abs(got - 0.5)) < 1e-13


def test_mixture_cdf_max_trivial_and_against_closed_form():
    # once the jump cdf saturates, every mixture term is a pmf entry
    got = mixture_cdf(
        StatisticKind.MAX, UniformJumps(1.0), Exponential(1.0), 2.0, 1.0
    )
    assert got == pytest.approx(1.0, abs=1e-8)
    # the general entry point and max_cdf share one route
    got = mixture_cdf(
        StatisticKind.MAX, ExponentialJumps(1.0), MittagLeffler(0.7), 1.5, 1.0
    )
    ref = max_cdf(0.7, ExponentialJumps(1.0), 1.5, 1.0)
    assert got == pytest.approx(ref, abs=1e-6)
    # long horizon near order one, far beyond what a count table covers:
    # E_0.9(-e^{-w} 200^0.9) summed as a 60-digit series
    w = np.array([1.0, 5.0, 10.0])
    got = mixture_cdf(
        StatisticKind.MAX, ExponentialJumps(1.0), MittagLeffler(0.9), 200.0, w
    )
    ref = [ml_series_mp(0.9, -math.exp(-x) * 200.0**0.9) for x in w]
    assert np.max(np.abs(got - ref)) < 1e-9
    # non-unit-rate exponential waits: Poisson counts at rate 2.5
    w = np.linspace(0.0, 8.0, 17)
    got = mixture_cdf(
        StatisticKind.MAX, ExponentialJumps(1.0), Exponential(2.5), 3.0, w
    )
    assert np.max(np.abs(got - np.exp(-2.5 * 3.0 * np.exp(-w)))) < 1e-14


def test_mixture_cdf_sum_at_zero_level():
    got = mixture_cdf(
        StatisticKind.SUM, ExponentialJumps(1.0), Exponential(1.0), 2.0, 0.0
    )
    assert got == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_cdf_axioms_on_grids():
    # every implemented law: values in [0, 1], non-decreasing over a
    # 200-point grid, and essentially one far out in the tail
    grid = np.linspace(0.0, 12.0, 200)

    def check(values, far):
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-12)
        assert far > 1.0 - 1e-6

    jumps = ExponentialJumps(1.0)
    vals = sum_cdf_series(jumps, 1.0, 1.5, grid)
    check(vals, sum_cdf_series(jumps, 1.0, 1.5, 60.0))
    vals = max_cdf(0.7, jumps, 1.5, grid)
    check(vals, max_cdf(0.7, jumps, 1.5, 1e9))
    vals = mixture_cdf(StatisticKind.MAX, jumps, Exponential(1.0), 1.5, grid)
    check(
        vals, mixture_cdf(StatisticKind.MAX, jumps, Exponential(1.0), 1.5, 60.0)
    )
    vals = mixture_cdf(
        StatisticKind.SUM, UniformJumps(1.0), Exponential(1.0), 1.5, grid
    )
    check(
        vals,
        mixture_cdf(StatisticKind.SUM, UniformJumps(1.0), Exponential(1.0), 1.5, 30.0),
    )


def test_max_cdf_matches_relaxation_solver():
    # the max law in t solves the memory-kernel decay problem whose
    # coefficient is the jump survival at the threshold
    order = 0.6
    jumps = ExponentialJumps(1.0)
    w = 1.0
    problem = RelaxationProblem(
        kernel=MittagLeffler(order),
        rate=float(jumps.sf(w)),
        t_max=2.0,
        step=1e-3,
    )
    sol = solve_relaxation(problem)
    for t in (0.25, 0.5, 1.0, 2.0):
        ref = max_cdf(order, jumps, t, w)
        assert abs(sol.at(t) - ref) <= sol.est_error + 1e-9


def test_transition_matrix():
    tm = TransitionMatrix([[0.5, 0.5], [0.0, 1.0]])
    assert tm.n_states == 2
    assert not tm.is_absorbing(0)
    assert tm.is_absorbing(1)
    assert np.allclose(tm.cumulative(), [[0.5, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        tm.matrix[0, 0] = 0.9  # frozen storage
    with pytest.raises(DomainError):
        tm.is_absorbing(2)
    with pytest.raises(DomainError):
        TransitionMatrix([[0.5, 0.5]])
    with pytest.raises(DomainError):
        TransitionMatrix([[0.7, 0.7], [0.5, 0.5]])
    with pytest.raises(DomainError):
        TransitionMatrix([[-0.1, 1.1], [0.5, 0.5]])


def test_import_does_not_load_scipy_signal():
    # scipy.signal (with the scipy.stats it loads) would triple the
    # import time for one convolution; stats convolves on scipy.fft.
    # scipy.linalg is loaded by the first chain with exponential waits.
    # mpmath is a test-only dependency: no route of the package uses it
    env = {**os.environ, "PYTHONPATH": str(Path(ctstat.__file__).parents[1])}
    code = "import sys, ctstat; print(*(m in sys.modules for m in ('scipy.signal', 'scipy.linalg', 'mpmath')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False False"
