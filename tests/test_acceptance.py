"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints exactly one line, criterion number plus PASS/FAIL plus
its runtime, directly to the terminal (bypassing capture) so a full run
leaves a readable scoreboard.  Tolerances and time budgets are part of
the checks themselves.
"""

import math
import time

import numpy as np

from ctstat.laplace import density_symbol, invert, marginal_symbol, memory_kernel_symbol
from ctstat.mc import SimulationPlan, build_ecdf, ks_distance, simulate_chain
from ctstat.mc import simulate_statistic
from ctstat.relax import RelaxationProblem, solve_relaxation
from ctstat.renewal import Exponential, MittagLeffler, counting_pmf
from ctstat.special import ml_one_param, ml_survival, ml_values
from ctstat.stats import (
    ExponentialJumps,
    StatisticKind,
    TransitionMatrix,
    max_cdf,
    sum_cdf_series,
)

N_PATHS = 100_000
KS_LIMIT = 1.63 / math.sqrt(N_PATHS)


def _report(capsys, number, ok, elapsed, label, detail):
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number:2d} {mark} ({elapsed:6.2f} s) {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_mittag_leffler_values(capsys):
    start = time.perf_counter()
    zs = np.linspace(-30.0, 0.0, 300)
    worst = max(
        abs(ml_one_param(1.0, float(z)).value - math.exp(z)) for z in zs
    )
    half = abs(ml_one_param(0.5, -1.0).value - 0.4275836)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and half < 1e-6 and elapsed < 1.0
    _report(
        capsys, 1, ok, elapsed, "Mittag-Leffler evaluation",
        f"exp gap {worst:.2e} (<1e-12), half-order gap {half:.2e} (<1e-6)",
    )


def test_criterion_02_gumbel_limit(capsys):
    start = time.perf_counter()
    jumps = ExponentialJumps(1.0)
    ts = np.linspace(0.25, 5.0, 20)
    ws = np.linspace(0.0, 5.0, 20)
    worst = 0.0
    for t in ts:
        got = max_cdf(1.0, jumps, float(t), ws)
        ref = np.exp(-np.exp(-ws) * t)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(
        capsys, 2, ok, elapsed, "double-exponential limit of the max law",
        f"worst gap {worst:.2e} (<1e-10) on a 20x20 grid",
    )


def test_criterion_03_fractional_max_vs_simulation(capsys):
    start = time.perf_counter()
    jumps = ExponentialJumps(1.0)
    plan = SimulationPlan(
        StatisticKind.MAX, jumps, MittagLeffler(0.7), 1.5, N_PATHS, 42
    )
    samples = simulate_statistic(plan)
    report = ks_distance(
        build_ecdf(samples), lambda w: max_cdf(0.7, jumps, 1.5, w)
    )
    elapsed = time.perf_counter() - start
    ok = report.statistic_d < KS_LIMIT and elapsed < 30.0
    _report(
        capsys, 3, ok, elapsed, "heavy-tailed max statistic vs simulation",
        f"KS {report.statistic_d:.5f} (<{KS_LIMIT:.5f}), {N_PATHS} paths",
    )


def test_criterion_04_compound_sum_vs_simulation(capsys):
    start = time.perf_counter()
    jumps = ExponentialJumps(1.0)
    plan = SimulationPlan(
        StatisticKind.SUM, jumps, Exponential(1.0), 2.0, N_PATHS, 42
    )
    samples = simulate_statistic(plan)
    report = ks_distance(
        build_ecdf(samples), lambda u: sum_cdf_series(jumps, 1.0, 2.0, u, tol=1e-8)
    )
    elapsed = time.perf_counter() - start
    ok = report.statistic_d < KS_LIMIT and elapsed < 30.0
    _report(
        capsys, 4, ok, elapsed, "compound sum statistic vs simulation",
        f"KS {report.statistic_d:.5f} (<{KS_LIMIT:.5f}), {N_PATHS} paths",
    )


def test_criterion_05_power_law_relaxation(capsys):
    start = time.perf_counter()
    order = 0.6

    def solve(step):
        problem = RelaxationProblem(
            kernel=MittagLeffler(order), rate=1.0, t_max=5.0, step=step
        )
        solution = solve_relaxation(problem)
        ref = ml_values(order, -(solution.times**order))
        return float(np.max(np.abs(solution.values - ref)))

    err_h = solve(1e-3)
    err_h2 = solve(5e-4)
    rate = math.log2(err_h / err_h2)
    elapsed = time.perf_counter() - start
    ok = err_h < 1e-3 and rate >= 1.1 and elapsed < 60.0
    _report(
        capsys, 5, ok, elapsed, "power-law kernel solver vs closed form",
        f"max deviation {err_h:.2e} (<1e-3), observed order {rate:.2f} (>=1.1)",
    )


def test_criterion_06_delta_kernel_reduction(capsys):
    start = time.perf_counter()
    problem = RelaxationProblem(
        kernel=Exponential(1.0), rate=1.0, t_max=5.0, step=0.01
    )
    solution = solve_relaxation(problem)
    worst = float(np.max(np.abs(solution.values - np.exp(-solution.times))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8
    _report(
        capsys, 6, ok, elapsed, "memoryless kernel reduces to plain decay",
        f"worst gap {worst:.2e} (<1e-8) on [0, 5]",
    )


def test_criterion_07_two_state_chain_occupancy(capsys):
    start = time.perf_counter()
    q = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
    grid = np.array([0.5, 1.0, 2.0])
    occupancy = simulate_chain(q, 0, MittagLeffler(0.7), grid, N_PATHS, 7)
    ref = ml_survival(0.7, grid)
    sigma = np.sqrt(ref * (1.0 - ref) / N_PATHS)
    gaps = np.abs(occupancy[0] - ref)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(gaps <= 3.0 * sigma)) and elapsed < 30.0
    _report(
        capsys, 7, ok, elapsed, "absorbing chain occupancy vs survival",
        f"worst gap {float(np.max(gaps / sigma)):.2f} sigma (<=3), {N_PATHS} paths",
    )


def test_criterion_08_counting_pmf(capsys):
    start = time.perf_counter()
    table = counting_pmf(MittagLeffler(1.0), 2.0, n_max=10)
    poisson = np.array(
        [math.exp(-2.0) * 2.0**n / math.factorial(n) for n in range(11)]
    )
    worst = float(np.max(np.abs(table.probabilities - poisson)))
    heavy = counting_pmf(MittagLeffler(0.7), 1.0)
    covered = float(heavy.probabilities.sum())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and covered >= 1.0 - 1e-6 and elapsed < 10.0
    _report(
        capsys, 8, ok, elapsed, "count distribution by inversion",
        f"unit-order gap {worst:.2e} (<1e-6), heavy-tail mass {covered:.8f} (>=1-1e-6)",
    )


def test_criterion_09_marginal_consistency(capsys):
    start = time.perf_counter()
    worst = 0.0
    for law in (Exponential(1.0), MittagLeffler(0.7)):
        for t in (0.5, 2.0):
            pmf = counting_pmf(law, t, mass_target=1.0 - 1e-10).probabilities
            for v in (0.0, 0.3, 0.7, 1.0):
                series = float(np.dot(v ** np.arange(pmf.size), pmf))
                got = invert(marginal_symbol(law, v), t)
                worst = max(worst, abs(got - series))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4
    _report(
        capsys, 9, ok, elapsed, "transform marginal vs direct count series",
        f"worst gap {worst:.2e} (<1e-4) over both laws",
    )


def test_criterion_10_kernel_identity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for law in (Exponential(1.0), MittagLeffler(0.7)):
        kernel = memory_kernel_symbol(law)
        density = density_symbol(law)
        for s in (0.1, 1.0, 10.0):
            gap = abs(kernel(s) * s * density(s) - (1.0 - density(s)))
            worst = max(worst, gap)
    power_gap = max(
        abs(memory_kernel_symbol(MittagLeffler(0.7))(s) - s ** (0.7 - 1.0))
        for s in (0.1, 1.0, 10.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and power_gap < 1e-12
    _report(
        capsys, 10, ok, elapsed, "memory kernel identity in the transform domain",
        f"identity gap {worst:.2e}, power-law form gap {power_gap:.2e} (<1e-12)",
    )
