"""Contract of the contour routes and the relaxation solver: right
within budget, or raise.

Every Mittag-Leffler value, every Talbot inversion, every count table
of a Mittag-Leffler stream and every power-law relaxation curve is
checked on a seeded grid against the benchmark's reference values
(``perfbench/oracles.py``), which never call ctstat, or against
closed-form transform pairs.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from ctstat.errors import AccuracyError
from ctstat.laplace import invert
from ctstat.relax import PowerLawKernel, RelaxationProblem, solve_relaxation
from ctstat.renewal import MittagLeffler, counting_pmf
from ctstat.special import ml_one_param, ml_values

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


def _relaxation_gap(oracles, order, rate, t_max, step):
    sol = solve_relaxation(RelaxationProblem(PowerLawKernel(order), rate=rate, t_max=t_max, step=step))
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
