"""Tests for the memory-kernel relaxation solver and the L1 operator."""

import math

import numpy as np
import pytest

from ctstat.errors import DomainError
from ctstat.relax import (
    RelaxationProblem,
    RelaxationSolution,
    caputo_l1,
    solve_relaxation,
)
from ctstat.relax import _solve_power_law
from ctstat.renewal import Exponential, MittagLeffler
from ctstat.special import ml_values

# E_0.6(-1), checked against the spectral integral representation
ML_06_AT_1 = 0.4133273409431063


def sweep_reference(alpha, rate, n_steps, step):
    """The product-trapezoidal rule stepped through the history one node
    at a time, one dot product per step: O(N^2), the direct form of the
    Toeplitz solve in the package."""
    q = np.empty(n_steps + 1)
    q[0] = 1.0
    lam = rate * step**alpha / math.gamma(alpha + 2.0)
    k = np.arange(n_steps + 1, dtype=float)
    powers = k ** (alpha + 1.0)
    lag = powers[2:] - 2.0 * powers[1:-1] + powers[:-2]
    for n in range(1, n_steps + 1):
        first = (n - 1.0) ** (alpha + 1.0) - n**alpha * (n - alpha - 1.0)
        acc = first * q[0]
        if n > 1:
            acc += np.dot(lag[: n - 1], q[n - 1 : 0 : -1])
        q[n] = (1.0 - lam * acc) / (1.0 + lam)
    return q


def test_toeplitz_solve_matches_sweep():
    # the two differ only by rounding, which the double-precision
    # weights (differences of k^(a+1)) leave near 1e-11 at these sizes
    for alpha in (0.1, 0.3, 0.5, 0.9, 1.0):
        for rate in (0.5, 2.0, 10.0):
            for n_steps in (1, 2, 3, 100, 5000):
                step = 5.0 / n_steps
                got = _solve_power_law(alpha, rate, step * np.arange(n_steps + 1), step)
                ref = sweep_reference(alpha, rate, n_steps, step)
                gap = float(np.max(np.abs(got - ref)))
                assert gap < 1e-10, f"order {alpha}, rate {rate}, N={n_steps}: {gap:.2e}"


def test_problem_validation():
    with pytest.raises(DomainError):
        RelaxationProblem(kernel="delta")
    with pytest.raises(DomainError):
        RelaxationProblem(Exponential(1.0), rate=0.0)
    with pytest.raises(DomainError):
        RelaxationProblem(Exponential(1.0), t_max=-1.0)
    with pytest.raises(DomainError):
        RelaxationProblem(Exponential(1.0), t_max=1.0, step=2.0)
    with pytest.raises(DomainError):
        MittagLeffler(0.0)
    with pytest.raises(DomainError):
        MittagLeffler(1.2)


def test_problem_caps_the_grid_before_allocating():
    # construction only: a solve this large would take gigabytes
    for kernel in (Exponential(1.0), MittagLeffler(0.5)):
        with pytest.raises(DomainError, match="2\\^24 nodes"):
            RelaxationProblem(kernel, t_max=1.0, step=1e-9)
        with pytest.raises(DomainError):
            RelaxationProblem(kernel, t_max=1.0, step=5e-324)
        with pytest.raises(DomainError):
            RelaxationProblem(kernel, t_max=2.0**23, step=1.0)
        # 2^23 - 1 steps: the half-step grid has 2^24 - 1 nodes
        RelaxationProblem(kernel, t_max=2.0**23 - 1.0, step=1.0)


def test_delta_kernel_is_exponential():
    prob = RelaxationProblem(Exponential(1.0), rate=1.0, t_max=5.0, step=0.01)
    sol = solve_relaxation(prob)
    assert sol.method == "exact"
    assert sol.times[0] == 0.0
    assert sol.times[-1] == pytest.approx(5.0, abs=1e-12)
    assert np.max(np.abs(sol.values - np.exp(-sol.times))) < 1e-12
    assert sol.est_error < 1e-12


def test_exponential_waits_give_the_closed_form_bit_for_bit():
    # the solution is the law's count generating function, exp(-c t)
    # for unit-rate exponential waits, exactly as written
    for c in (0.3, 1.0, 2.7):
        sol = solve_relaxation(RelaxationProblem(Exponential(1.0), rate=c, t_max=3.0, step=0.01))
        assert np.array_equal(sol.values, np.exp(-c * sol.times))
        assert sol.method == "exact"
        assert sol.est_error == 1e-15


def test_sweep_estimate_covers_the_count_pgf():
    # the Toeplitz sweep checks the paper's relation: its estimate covers
    # its distance to E_a(-c t^a), the count generating function
    for order in (0.5, 0.9):
        waits = MittagLeffler(order)
        for c in (0.4, 1.7):
            sol = solve_relaxation(RelaxationProblem(waits, rate=c, t_max=2.0, step=2e-3))
            err = float(np.max(np.abs(sol.values - waits.count_pgf(sol.times, c))))
            assert 0.0 < err <= sol.est_error < 1e-2, f"order {order}, c {c}"


def test_power_law_matches_mittag_leffler():
    prob = RelaxationProblem(MittagLeffler(0.6), rate=1.0, t_max=2.0, step=2e-3)
    sol = solve_relaxation(prob)
    assert sol.method == "product_trapezoidal"
    ref = ml_values(0.6, -(sol.times**0.6))
    err = float(np.max(np.abs(sol.values - ref)))
    assert err < 1e-4
    assert sol.est_error >= err
    assert sol.at(1.0) == pytest.approx(ML_06_AT_1, abs=2.0 * sol.est_error + 1e-6)
    # the curve is a survival-type decay
    assert sol.values[0] == 1.0
    assert np.all(np.diff(sol.values) < 0.0)
    assert np.all(sol.values > 0.0)


def test_error_estimate_covers_truth_across_orders():
    for order, rate in ((0.3, 1.5), (0.8, 1.5), (1.0, 0.7)):
        prob = RelaxationProblem(MittagLeffler(order), rate=rate, t_max=2.0, step=2e-3)
        sol = solve_relaxation(prob)
        ref = ml_values(order, -rate * sol.times**order)
        err = float(np.max(np.abs(sol.values - ref)))
        assert sol.est_error >= err, f"order {order}: est {sol.est_error} < {err}"


def test_power_law_order_one_is_exponential_limit():
    prob = RelaxationProblem(MittagLeffler(1.0), rate=2.0, t_max=2.0, step=2e-3)
    sol = solve_relaxation(prob)
    assert np.max(np.abs(sol.values - np.exp(-2.0 * sol.times))) < 1e-5


def test_convergence_order_exceeds_one():
    errs = []
    for step in (4e-3, 2e-3):
        prob = RelaxationProblem(MittagLeffler(0.6), rate=1.0, t_max=2.0, step=step)
        sol = solve_relaxation(prob)
        ref = ml_values(0.6, -(sol.times**0.6))
        errs.append(float(np.max(np.abs(sol.values - ref))))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.05, f"observed order {order:.2f}"


def test_grid_handles_non_divisible_horizon():
    prob = RelaxationProblem(Exponential(1.0), rate=1.0, t_max=1.0, step=0.3)
    sol = solve_relaxation(prob)
    assert np.allclose(sol.times, [0.0, 0.3, 0.6, 0.9])


def test_solution_interpolation_bounds():
    sol = solve_relaxation(
        RelaxationProblem(Exponential(1.0), rate=1.0, t_max=1.0, step=0.1)
    )
    assert sol.at(0.05) == pytest.approx(
        0.5 * (1.0 + math.exp(-0.1)), abs=1e-12
    )
    out = sol.at(np.array([0.0, 0.5, 1.0]))
    assert out.shape == (3,)
    with pytest.raises(DomainError):
        sol.at(1.5)
    with pytest.raises(DomainError):
        sol.at(-0.1)
    with pytest.raises(DomainError):
        sol.at(float("nan"))
    with pytest.raises(DomainError):
        sol.at(np.array([0.5, np.nan]))


def test_caputo_exact_on_affine_data():
    h = 0.01
    t = h * np.arange(200)
    vals = 2.0 + 3.0 * t
    for order in (0.3, 0.6, 1.0):
        got = caputo_l1(vals, order, 150, h)
        ref = 3.0 * t[150] ** (1.0 - order) / math.gamma(2.0 - order)
        assert got == pytest.approx(ref, abs=1e-10)
    assert caputo_l1(np.full(50, 4.2), 0.5, 30, h) == 0.0


def test_caputo_order_one_is_backward_difference():
    h = 0.01
    t = h * np.arange(100)
    vals = np.exp(-t)
    got = caputo_l1(vals, 1.0, 50, h)
    assert got == pytest.approx((vals[50] - vals[49]) / h, abs=1e-13)


def test_caputo_inverts_the_relaxation_operator():
    # away from the start-up region the solved curve must satisfy
    # D^a Q = -rate * Q under the matching discrete operator
    order, rate, step = 0.6, 1.0, 1e-3
    prob = RelaxationProblem(MittagLeffler(order), rate=rate, t_max=2.0, step=step)
    sol = solve_relaxation(prob)
    worst = 0.0
    for i, t in enumerate(sol.times):
        if t < 0.5:
            continue
        d = caputo_l1(sol.values, order, i, step)
        worst = max(worst, abs(d + rate * sol.values[i]))
    assert worst < 1e-3, f"worst identity gap {worst:.2e}"


def test_caputo_validation():
    vals = np.linspace(0.0, 1.0, 10)
    with pytest.raises(DomainError):
        caputo_l1(vals, 0.0, 5, 0.1)
    with pytest.raises(DomainError):
        caputo_l1(vals, 1.5, 5, 0.1)
    with pytest.raises(DomainError):
        caputo_l1(vals, 0.5, 0, 0.1)
    with pytest.raises(DomainError):
        caputo_l1(vals, 0.5, 10, 0.1)
    with pytest.raises(DomainError):
        caputo_l1(vals, 0.5, 5, 0.0)
    with pytest.raises(DomainError):
        caputo_l1(np.ones((3, 3)), 0.5, 1, 0.1)
    with pytest.raises(DomainError):
        caputo_l1(np.array([1.0]), 0.5, 1, 0.1)
