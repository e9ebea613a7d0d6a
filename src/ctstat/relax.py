"""Relaxation curves driven by the renewal density of a waiting law.

The decay of an observable Q with Q(0) = 1 obeys the Volterra equation

    Q(t) = 1 - rate * int_0^t k(t - s) Q(s) ds,

with k the renewal density of the waiting law (Laplace transform
d/(1 - d), d that of the wait density).  Its solution is the law's
count generating function, ``law.count_pgf(t, rate)`` = E (1 -
rate)^N(t).  Exponential waits of rate r give the constant kernel r and
the closed form exp(-r * rate * t).  Mittag-Leffler waits of order a
give the power-law kernel u^(a-1) / Gamma(a) and E_a(-rate * t^a)
(Beghin & Orsingher 2009); at a = 1 both coincide.

Mittag-Leffler waits are solved on the grid, the paper's relation made
checkable, by an implicit product trapezoidal rule: each step
integrates the kernel exactly against a piecewise linear interpolant of
Q.  All steps together form one lower-triangular Toeplitz system (the
history weights depend only on the lag), solved at once as the power
series reciprocal of its first column (Newton doubling with FFT
products) times the right-hand side: O(N log N) operations for N steps,
where stepping through the history costs O(N^2), with the same values
up to rounding.  The rule is unconditionally stable (diagonal 1 + lam,
lam > 0) and self-reporting: the solver reruns at half the step and
charges twice the largest node difference to est_error.  Since the
solution starts like 1 - rate * t^a / Gamma(1+a), the observed
convergence order lies between 1 and 2, not at the smooth-case 2.

caputo_l1 is the matching discrete form of the fractional derivative
of order a (the L1 scheme): exact for affine data, first-kind check
for solver output away from the origin, where the start-up error of
both discretizations has decayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .errors import DomainError
from .renewal import Exponential, WaitingLaw, _check_waiting_law, _positive
from .special import _check_order

__all__ = [
    "RelaxationProblem",
    "RelaxationSolution",
    "solve_relaxation",
    "caputo_l1",
]


@dataclass(frozen=True)
class RelaxationProblem:
    """One relaxation run: waiting law (its renewal density is the
    kernel), coupling rate, horizon and grid step (fewer than 2^23 steps)."""

    kernel: WaitingLaw
    rate: float = 1.0
    t_max: float = 1.0
    step: float = 0.01

    def __post_init__(self):
        _check_waiting_law(self.kernel)
        _positive("rate", self.rate)
        _positive("t_max", self.t_max)
        if not (0.0 < self.step <= self.t_max):
            raise DomainError(f"step must lie in (0, t_max], got {self.step}")
        # the check run at half the step keeps below 2^24 nodes (~1 GB)
        if self.t_max / self.step + 1e-9 >= 2**23:
            raise DomainError(f"t_max / step = {self.t_max / self.step:.3g}; "
                              "the half-step grid must keep below 2^24 nodes")


@dataclass(frozen=True)
class RelaxationSolution:
    """Grid solution of one relaxation problem.

    ``times`` runs from 0 in steps of the requested size; ``values``
    holds Q on those nodes.  ``est_error`` bounds the largest absolute
    node error; the closed form (``method`` "exact") reports 1e-15 for
    its rounding.
    """

    times: np.ndarray
    values: np.ndarray
    est_error: float
    method: str

    def at(self, t):
        """Linear interpolation of the curve inside the solved range."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr >= 0.0) & (t_arr <= self.times[-1] * (1 + 1e-12))):
            raise DomainError("query time outside the solved range")
        out = np.interp(t_arr, self.times, self.values)
        return float(out) if t_arr.ndim == 0 else out


def _grid(t_max: float, step: float) -> np.ndarray:
    n = int(math.floor(t_max / step + 1e-9))
    return step * np.arange(n + 1)


def _series_reciprocal(c: np.ndarray) -> np.ndarray:
    """First c.size coefficients of the power series 1 / c(z).

    Newton doubling, g <- g * (2 - c * g) mod z^m, doubles the number m
    of known coefficients per round.  Before a round the low part of
    c * g already reads 1, 0, 0, ..., so a cyclic product of length m
    gives the rest of it exactly (the wrap lands on the low part), and
    that rest times g gives the new part of g: two FFT products of
    length about m per round.
    """
    g = np.array([1.0 / c[0]])
    while g.size < c.size:
        m = min(2 * g.size, c.size)
        size = next_fast_len(m, real=True)
        g_hat = np.fft.rfft(g, size)
        prod = np.fft.rfft(c[:m], size)
        prod *= g_hat
        high = np.fft.irfft(prod, size)[g.size : m]
        prod = np.fft.rfft(high, size)
        prod *= g_hat
        g = np.concatenate([g, -np.fft.irfft(prod, size)[: m - g.size]])
    return g


def _solve_power_law(alpha: float, rate: float, times: np.ndarray, step: float):
    """Implicit product-trapezoidal rule on the given grid, as one
    Toeplitz solve.

    The memory integral against the piecewise linear interpolant has
    weights h^a / Gamma(a+2) * a_{j,n}.  Only the j = 0 weight depends
    on n beyond the lag n - j, so the updates for n = 1..N are one
    lower-triangular Toeplitz system T q = b with first column
    (1 + lam, lam * lag_1, lam * lag_2, ...) and b_n = 1 - lam * first_n.
    Its solution is the first N coefficients of the power series
    b(z) / column(z): the series reciprocal of the column times b, in
    O(N log N) operations.
    """
    n_steps = times.size - 1
    q = np.empty(n_steps + 1)
    q[0] = 1.0
    if n_steps == 0:
        return q
    lam = rate * step**alpha / math.gamma(alpha + 2.0)
    k = np.arange(n_steps + 1, dtype=float)
    powers = k ** (alpha + 1.0)
    column = np.empty(n_steps)
    column[0] = 1.0 + lam
    # interior weight for lag d >= 1: second difference of k^(a+1)
    column[1:] = lam * (powers[2:] - 2.0 * powers[1:-1] + powers[:-2])
    first = powers[:-1] - k[1:] ** alpha * (k[1:] - alpha - 1.0)
    size = next_fast_len(2 * n_steps, real=True)
    prod = np.fft.rfft(_series_reciprocal(column), size)
    prod *= np.fft.rfft(1.0 - lam * first, size)
    q[1:] = np.fft.irfft(prod, size)[:n_steps]
    return q


def solve_relaxation(problem: RelaxationProblem) -> RelaxationSolution:
    """Solve one relaxation problem on its grid.

    Exponential waits take the closed form ``count_pgf``.  Mittag-Leffler
    waits solve the product-trapezoidal rule at the requested step and at
    half of it, each as one Toeplitz solve, and report twice the largest
    disagreement on shared nodes as est_error; the values are those of
    the requested step, so refining the step refines the curve returned.
    """
    times = _grid(problem.t_max, problem.step)
    if isinstance(problem.kernel, Exponential):
        values = problem.kernel.count_pgf(times, problem.rate)
        return RelaxationSolution(times, values, 1e-15, "exact")
    alpha = problem.kernel.order
    coarse = _solve_power_law(alpha, problem.rate, times, problem.step)
    half = 0.5 * problem.step
    fine_times = half * np.arange(2 * (times.size - 1) + 1)
    fine = _solve_power_law(alpha, problem.rate, fine_times, half)
    est = 2.0 * float(np.max(np.abs(coarse - fine[::2])))
    return RelaxationSolution(times, coarse, est, "product_trapezoidal")


def caputo_l1(values, order: float, index: int, step: float) -> float:
    """L1 approximation of the fractional derivative at one grid node.

    ``values`` holds samples on a uniform grid of the given step; the
    derivative of the stated order in (0, 1] is formed at ``index``
    from backward differences with weights (k+1)^(1-a) - k^(1-a).  The
    rule integrates the kernel against a piecewise linear interpolant,
    so it is exact for affine data; accuracy near t = 0 is limited for
    functions with a power-law start.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError("values must be a 1-d array with at least two nodes")
    _check_order(order)
    if not (1 <= index < arr.size):
        raise DomainError(f"index must lie in [1, {arr.size - 1}], got {index}")
    _positive("step", step)
    k = np.arange(index, dtype=float)
    shifted = k ** (1.0 - order)
    shifted[0] = 0.0  # 0^0 must read as 0 here so order = 1 degrades to a difference
    weights = (k + 1.0) ** (1.0 - order) - shifted
    diffs = arr[index : 0 : -1] - arr[index - 1 :: -1][: index]
    scale = step**-order / math.gamma(2.0 - order)
    return float(scale * np.dot(weights, diffs))
