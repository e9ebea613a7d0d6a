"""Contract of the contour routes, the sum laws, the chain rows and the
relaxation solver: right within budget, or raise.

Every Mittag-Leffler value, every Talbot inversion, every count table
of a Mittag-Leffler stream, every Erlang and Irwin-Hall sum law, every
chain row and every power-law relaxation curve is checked on a seeded
grid against the benchmark's reference values (``perfbench/oracles.py``),
which never call ctstat, against closed-form transform pairs, or
against sums built here from ``gammainc`` and mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from ctstat.errors import AccuracyError
from ctstat.laplace import invert
from ctstat.relax import RelaxationProblem, solve_relaxation
from ctstat.renewal import Exponential, MittagLeffler, counting_pmf
from ctstat.special import ml_one_param, ml_values
from ctstat.stats import (
    DegenerateJumps,
    ExponentialJumps,
    ParetoJumps,
    StatisticKind,
    TransitionMatrix,
    UniformJumps,
    _in_resolvent_domain,
    _power_rows,
    _resolvent_rows,
    _sum_mixture,
    mixture_cdf,
    semi_markov_marginal,
)

RNG_SEED = 20240601


def _ml_grid():
    rng = np.random.default_rng(RNG_SEED)
    alphas = np.concatenate([[0.02, 0.5, 0.999], rng.uniform(0.02, 0.999, 21)])
    xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 80), rng.uniform(0.0, 30.0, 40)])
    return alphas, xs


def _ml_reference(oracles, alpha, xs):
    # the trapezoid oracle reads exp(-0 * inf) at x = 0 for small orders
    with np.errstate(over="ignore", invalid="ignore"):
        ref = oracles.ml_neg(alpha, xs)
    return np.where(xs == 0.0, 1.0, ref)


def test_ml_routes_meet_budget_and_estimate(bench_oracles):
    alphas, xs = _ml_grid()
    for alpha in alphas:
        ref = _ml_reference(bench_oracles, alpha, xs)
        vec = ml_values(alpha, -xs)
        assert np.max(np.abs(vec - ref)) < 1e-11, f"ml_values at order {alpha}"
        for x, r in zip(xs, ref):
            e = ml_one_param(alpha, -x)
            err = abs(e.value - r)
            assert err < 1e-11, f"E_{alpha}(-{x}) off by {err:.2e} ({e.regime})"
            if e.regime == "contour":
                assert e.est_error >= err, f"E_{alpha}(-{x}): est {e.est_error:.2e} < {err:.2e}"


def _ml_series_mp(alpha, z):
    """E_a(z) by its Taylor series in mpmath, 40 digits, to 1e-32."""
    with mpmath.workdps(40):
        a, z = mpmath.mpf(alpha), mpmath.mpf(z)
        total, power, n = mpmath.mpf(1), mpmath.mpf(1), 0
        peak = abs(float(z)) ** (1.0 / alpha) / alpha
        while True:
            n += 1
            power *= z
            term = power * mpmath.rgamma(a * n + 1)
            total += term
            if n > peak and abs(term) < mpmath.mpf(10) ** -32 * max(1, abs(total)):
                return total


def test_ml_series_estimate_covers_error():
    # the one series, at random points of its band and of z > 0: every
    # value, returned or carried by AccuracyError, lies within its
    # estimate of the mpmath series
    rng = np.random.default_rng(RNG_SEED + 2)
    alphas = rng.uniform(0.05, 1.0, 160)
    zs = np.where(np.arange(160) % 2 == 0, -rng.uniform(0.0, 9.0**alphas), rng.uniform(0.0, 20.0, 160))
    covered = 0
    for alpha, z in zip(alphas, zs):
        try:
            e = ml_one_param(alpha, z)
            value, est = e.value, e.est_error
        except AccuracyError as exc:
            value, est = exc.value, exc.est_error
        if not math.isfinite(value + est):
            continue  # left double range
        err = float(abs(mpmath.mpf(value) - _ml_series_mp(alpha, z)))
        assert err <= est, f"E_{alpha}({z}): error {err:.2e} > est {est:.2e}"
        covered += 1
    assert covered > 120


def test_talbot_inversion_closed_forms():
    rng = np.random.default_rng(RNG_SEED)
    t = np.sort(rng.uniform(0.05, 20.0, 60))
    for lam in (0.3, 1.0, 4.0):
        got = invert(lambda s: 1.0 / (s + lam), t, method="talbot")
        assert np.max(np.abs(got - np.exp(-lam * t))) < 1e-10
        for n in (1, 3, 8):
            got = invert(lambda s: lam**n / (s * (s + lam) ** n), t, method="talbot")
            assert np.max(np.abs(got - gammainc(n, lam * t))) < 1e-10
    # the contour encloses the poles at +-i only while t stays below ~6
    t = np.sort(rng.uniform(0.05, 5.0, 60))
    got = invert(lambda s: s / (s * s + 1.0), t, method="talbot")
    assert np.max(np.abs(got - np.cos(t))) < 1e-10


def test_count_tables_meet_pgf_identity_or_raise(bench_oracles):
    # sum_n p_n z^n = E_a(-(1 - z) t^a); the table misses at most its
    # tail mass, which z^n only shrinks
    rng = np.random.default_rng(RNG_SEED)
    zs = np.linspace(0.0, 1.0, 6)
    raised = 0
    for a, t in zip(rng.uniform(0.3, 0.99, 24), np.exp(rng.uniform(0.0, math.log(500.0), 24))):
        try:
            table = counting_pmf(MittagLeffler(a), t)
        except AccuracyError as exc:
            assert exc.est_error > 1e-6
            raised += 1
            continue
        pgf = np.polynomial.polynomial.polyval(zs, table.probabilities)
        ref = _ml_reference(bench_oracles, a, (1.0 - zs) * t**a)
        err = np.max(np.abs(pgf - ref))
        assert err <= table.tail_bound + 1e-10, f"order {a}, t={t}: {err:.2e}"
    assert raised < 24


def test_count_tables_match_prabhakar_pmf(bench_oracles):
    for a, t in ((0.5, 10.0), (0.7, 20.0), (0.9, 5.0)):
        table = counting_pmf(MittagLeffler(a), t)
        ref = bench_oracles.fractional_pmf(a, t, len(table) - 1)
        err = np.max(np.abs(table.probabilities - ref))
        assert err < 1e-10, f"order {a}, t={t}: {err:.2e}"


def _within_tol_or_raised(jumps, waits, t, u, ref, tol, label):
    """1 when mixture_cdf raised with an estimate past tol, else 0 after
    checking the values against ref."""
    try:
        got = mixture_cdf(StatisticKind.SUM, jumps, waits, t, u, tol=tol)
    except AccuracyError as exc:
        assert exc.est_error > tol, label
        return 1
    err = float(np.max(np.abs(got - ref)))
    assert err <= tol, f"{label}: {err:.2e} > tol {tol:.0e}"
    return 0


def test_erlang_sums_meet_tol_or_raise():
    # exponential jumps over Poisson counts: sum_n p_n P(Gamma(n, b) <= u)
    rng = np.random.default_rng(RNG_SEED)
    raised = 0
    for i, (lam, t, b) in enumerate(zip(rng.uniform(0.2, 4.0, 8), rng.uniform(0.1, 12.0, 8),
                                        rng.uniform(0.3, 3.0, 8))):
        mu = lam * t
        n = np.arange(1, int(mu + 14.0 * math.sqrt(mu) + 40))
        pmf = np.exp(n * math.log(mu) - mu - gammaln(n + 1.0))
        u = np.concatenate([[0.0], rng.uniform(0.0, (mu + 8.0 * math.sqrt(mu) + 8.0) / b, 60)])
        ref = math.exp(-mu) + gammainc(n[None, :], b * u[:, None]) @ pmf
        tol = (1e-8, 1e-11)[i % 2]
        raised += _within_tol_or_raised(
            ExponentialJumps(b), Exponential(lam), t, u, ref, tol, f"Erlang mu={mu:.3g}, rate {b:.3g}"
        )
    assert raised < 8


def _erlang_mixture_mp(pmf, y):
    """sum_n pmf_n P(n, y) at 40 digits, P the regularized lower
    incomplete gamma, stepped up by P(n + 1, y) = P(n, y) - e^-y y^n / n!
    (A&S 6.5.21), and the gap of the last step to mpmath's gammainc."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        weight, cdf, terms = mpmath.exp(-y), mpmath.mpf(1), [mpmath.mpf(pmf[0])]
        for n in range(1, len(pmf)):
            cdf -= weight
            weight *= y / n
            terms.append(mpmath.mpf(pmf[n]) * cdf)
        anchor = mpmath.gammainc(len(pmf) - 1, 0, y, regularized=True)
        return float(mpmath.fsum(terms)), float(cdf - anchor)


def test_erlang_sum_estimate_covers_error():
    # exponential jumps over Poisson counts, up to 523 table entries:
    # the one-pass mixture against the same table summed at 40 digits
    for mu, rate in ((7.7, 1.0), (31.5, 2.5), (100.0, 1.0), (400.0, 0.5)):
        jumps = ExponentialJumps(rate)
        u = np.linspace(0.0, (mu + 8.0 * math.sqrt(2.0 * mu)) / rate, 41)
        table = counting_pmf(Exponential(1.0), mu, mass_target=1.0 - 0.25e-8)
        values, est = jumps.count_mixture(table.probabilities, u)
        ref, gaps = np.array([_erlang_mixture_mp(table.probabilities, rate * x) for x in u]).T
        assert np.max(np.abs(gaps)) < 1e-30, f"mu={mu}: oracle off mpmath gammainc"
        err = float(np.max(np.abs(values - ref)))
        assert err <= est, f"mu={mu}: est {est:.2e} < {err:.2e}"
        got = mixture_cdf(StatisticKind.SUM, jumps, Exponential(1.0), mu, u)
        assert np.array_equal(got, np.clip(values, 0.0, 1.0))


def test_sum_errors_carry_the_cdf():
    # a count table that misses its mass gate (order 0.95, t = 100), and
    # one that leaves more than tol uncovered: both raise with the sum
    # cdf at every u, not the table or nothing
    u = np.linspace(0.0, 50.0, 7)
    short = counting_pmf(Exponential(1.0), 2.0, n_max=3)
    for jumps in (UniformJumps(1.0), ExponentialJumps(1.0), DegenerateJumps(1.0)):
        for call in (lambda: mixture_cdf(StatisticKind.SUM, jumps, MittagLeffler(0.95), 100.0, u),
                     lambda: _sum_mixture(short, jumps, u, 1e-8)):
            with pytest.raises(AccuracyError) as info:
                call()
            value = info.value.value
            assert value.shape == u.shape, f"{jumps!r}: value shape {value.shape}"
            assert np.all((value >= 0.0) & (value <= 1.0)), f"{jumps!r}"
            assert info.value.est_error > 1e-8


def _pareto_two_jump_cdf(mu, scale, exponent, u):
    """P(sum <= u) below three scales, where at most two jumps fit:
    e^-mu (1 + mu F(u) + mu^2/2 F*2(u)), F*2 a single quad integral."""

    def cdf(x):
        return 1.0 - (scale / x) ** exponent if x >= scale else 0.0

    def two_fold(x):
        if x <= 2.0 * scale:
            return 0.0
        dens = lambda y: exponent * scale**exponent / y ** (exponent + 1.0) * cdf(x - y)
        return quad(dens, scale, x - scale, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    return math.exp(-mu) * (1.0 + mu * cdf(u) + 0.5 * mu * mu * two_fold(u))


def test_pareto_sums_meet_tol_or_raise(bench_oracles):
    # Pareto jumps over Poisson counts: one jump at most below two
    # scales, two at most below three
    rng = np.random.default_rng(RNG_SEED + 2)
    raised = 0
    for i, (lam, t, scale, exponent) in enumerate(zip(rng.uniform(0.3, 3.0, 6), rng.uniform(0.5, 2.0, 6),
                                                      rng.uniform(0.3, 2.0, 6), rng.uniform(0.6, 3.0, 6))):
        mu = lam * t
        low = scale * np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 2.0, 5)])
        mid = scale * np.concatenate([[2.0, 2.003], rng.uniform(2.0, 3.0, 5)])
        ref = np.concatenate([bench_oracles.pareto_poisson_low_cdf(mu, scale, exponent, low),
                              [_pareto_two_jump_cdf(mu, scale, exponent, x) for x in mid]])
        tol = (1e-8, 1e-10)[i % 2]
        raised += _within_tol_or_raised(
            ParetoJumps(scale, exponent), Exponential(lam), t, np.concatenate([low, mid]), ref, tol,
            f"Pareto mu={mu:.3g}, scale {scale:.3g}, exponent {exponent:.3g}",
        )
    assert raised < 6


def _irwin_hall_poisson(mu, upper, u):
    """P(U_1 + .. + U_N <= u), N ~ Poisson(mu), U_i uniform on (0, upper],
    from the alternating Irwin-Hall sum at 60 digits."""
    with mpmath.workdps(60):
        y = mpmath.mpf(u) / mpmath.mpf(upper)
        weight = mpmath.exp(-mpmath.mpf(mu))
        total, n = weight, 0
        while n < mu or weight > mpmath.mpf(10) ** -30:
            n += 1
            weight *= mpmath.mpf(mu) / n
            if y >= n:
                cdf = mpmath.mpf(1)
            else:
                cdf = mpmath.fsum(
                    (-1) ** k * mpmath.binomial(n, k) * (y - k) ** n
                    for k in range(int(mpmath.floor(y)) + 1)
                ) / mpmath.factorial(n)
            total += weight * cdf
        return float(total)


def test_irwin_hall_sums_meet_tol_or_raise():
    rng = np.random.default_rng(RNG_SEED + 1)
    raised = 0
    for i, (lam, t, a) in enumerate(zip(rng.uniform(0.3, 3.0, 4), rng.uniform(0.5, 4.0, 4),
                                        rng.uniform(0.2, 3.0, 4))):
        mu = lam * t
        # nodes and breakpoints of the n-fold laws, and points between
        u = a * np.concatenate([[0.0, 1.0, 2.0], rng.uniform(0.0, mu + 6.0 * math.sqrt(mu) + 3.0, 9)])
        ref = np.array([_irwin_hall_poisson(mu, a, x) for x in u])
        tol = (1e-8, 1e-11)[i % 2]
        raised += _within_tol_or_raised(
            UniformJumps(a), Exponential(lam), t, u, ref, tol, f"Irwin-Hall mu={mu:.3g}, upper {a:.3g}"
        )
    assert raised < 4


def _chain_row_mp(q, i, alpha, t):
    """Row e_i E_a(-A x) of a chain, A = I - q and x = t^a, by the matrix
    series sum_n e_i (-A x)^n / Gamma(a n + 1) in mpmath, to 1e-32.  The
    order is held as an mpf, and the precision is sized to the peak term,
    about exp((x rho(A))^(1/a)): a fixed 30 digits is off by 1e88 at
    t = 155."""
    n = len(q)
    a_mat = np.eye(n) - np.asarray(q)
    rho = float(np.max(np.abs(np.linalg.eigvals(a_mat))))
    peak = (t**alpha * rho) ** (1.0 / alpha)
    with mpmath.workdps(int(40 + peak / math.log(10))):
        a = mpmath.mpf(alpha)
        x = mpmath.mpf(t) ** a
        m = [[-x * mpmath.mpf(v) for v in row] for row in a_mat.tolist()]
        power = [mpmath.mpf(int(j == i)) for j in range(n)]
        total, k = list(power), 0
        while True:
            k += 1
            power = [mpmath.fsum(power[l] * m[l][j] for l in range(n)) for j in range(n)]
            terms = [p * mpmath.rgamma(a * k + 1) for p in power]
            total = [s + u for s, u in zip(total, terms)]
            if k > peak / alpha and max(abs(u) for u in terms) < mpmath.mpf(10) ** -32:
                return np.array([float(s) for s in total])


def _redraw_chain(rng, k):
    """q = D^-1 W with W symmetric: a chain with a real spectrum."""
    w = rng.uniform(0.0, 1.0, (k, k))
    w += w.T
    return w / w.sum(axis=1, keepdims=True)


DEFECTIVE_CHAIN = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]


def test_chain_rows_meet_tol_and_estimate_covers_error():
    # the resolvent route: every row within its estimate of the series,
    # and within tol or raised with every row; the defective chain has
    # no eigenbasis, which the resolvent never forms
    rng = np.random.default_rng(RNG_SEED + 5)
    chains = [np.array(DEFECTIVE_CHAIN), _redraw_chain(rng, 2), _redraw_chain(rng, 3)]
    ts, tol = np.array([0.5, 8.0, 60.0, 200.0]), 1e-8
    for c, q in enumerate(chains):
        a_mat = np.eye(len(q)) - q
        for alpha in (0.5, 0.7, 0.9, 0.95):
            i = int(rng.integers(len(q)))
            assert _in_resolvent_domain(a_mat, alpha)
            try:
                rows = semi_markov_marginal(TransitionMatrix(q), i, MittagLeffler(alpha), ts, tol=tol)
                raised = False
            except AccuracyError as exc:
                rows, raised = exc.value, True
            best, est = _resolvent_rows(a_mat, i, alpha, ts**alpha)
            assert np.array_equal(rows, best)
            assert raised == bool(np.any(est > tol))
            for t, row, e in zip(ts, rows, est):
                err = float(np.max(np.abs(row - _chain_row_mp(q, i, alpha, t))))
                assert err <= e, f"chain {c}, order {alpha}, t={t}: {err:.2e} > est {e:.2e}"


def test_chain_row_that_count_tables_missed():
    # at order 0.95 and t = 100 the count table misses unit mass; the
    # resolvent row meets the default tol
    q = [[0.3, 0.7], [0.6, 0.4]]
    got = semi_markov_marginal(TransitionMatrix(q), 0, MittagLeffler(0.95), 100.0)
    assert np.max(np.abs(got - _chain_row_mp(q, 0, 0.95, 100.0))) < 1e-10


def test_chain_rows_outside_the_resolvent_domain_take_the_table_route():
    # the cyclic permutation's A has eigenvalues 1 - exp(+-2 pi i / 3),
    # at |arg| = pi/6, past (1 - 0.95) pi: one count table per time, each
    # row within tol of the series or raised with every row
    q = np.roll(np.eye(3), 1, axis=1)
    assert not _in_resolvent_domain(np.eye(3) - q, 0.95)
    ts, tol = np.array([2.0, 20.0, 150.0]), 1e-8
    with pytest.raises(AccuracyError) as info:
        semi_markov_marginal(TransitionMatrix(q), 0, MittagLeffler(0.95), ts, tol=tol)
    rows, est = info.value.value, info.value.est_error
    assert np.all(est[:2] <= tol) and est[2] > tol
    for t, row in zip(ts[:2], rows[:2]):
        table = counting_pmf(MittagLeffler(0.95), t, mass_target=1.0 - 0.5 * tol)
        assert np.array_equal(row, table.probabilities @ _power_rows(q, 0, len(table)))
        err = float(np.max(np.abs(row - _chain_row_mp(q, 0, 0.95, t))))
        assert err <= tol, f"t={t}: {err:.2e}"


def _relaxation_gap(oracles, order, rate, t_max, step):
    sol = solve_relaxation(RelaxationProblem(MittagLeffler(order), rate=rate, t_max=t_max, step=step))
    # 257 nodes spread over the curve, plus the first steps, where the
    # start-up error peaks
    n = sol.times.size - 1
    idx = np.unique(np.concatenate([np.arange(9), np.linspace(0, n, 257).astype(int)]))
    ref = _ml_reference(oracles, order, rate * sol.times[idx] ** order)
    return float(np.max(np.abs(sol.values[idx] - ref))), sol.est_error


def test_relaxation_estimate_covers_error(bench_oracles):
    rng = np.random.default_rng(RNG_SEED)
    orders = np.concatenate([[0.1, 1.0], rng.uniform(0.1, 1.0, 10)])
    rates = np.concatenate([[2.0, 0.5], rng.uniform(0.5, 2.0, 10)])
    for a, c in zip(orders, rates):
        err, est = _relaxation_gap(bench_oracles, a, c, 5.0, 1e-3)
        assert est >= err, f"order {a}, rate {c}: est {est:.2e} < {err:.2e}"
    # 5e4 coarse and 1e5 fine steps: in reach only of an O(N log N) solve
    a, c = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)
    err, est = _relaxation_gap(bench_oracles, a, c, 5.0, 1e-4)
    assert est >= err, f"order {a}, rate {c}: est {est:.2e} < {err:.2e}"
    assert est < 1e-3  # the cover is not vacuous: the curve meets the solver's bound
