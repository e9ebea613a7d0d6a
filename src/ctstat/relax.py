"""Relaxation curves driven by a memory kernel.

The decay of an observable Q with Q(0) = 1 is written as a Volterra
equation of the second kind,

    Q(t) = 1 - rate * int_0^t k(t - s) Q(s) ds,

where k is the time-domain memory kernel.  A delta kernel gives plain
exponential decay exp(-rate * t).  The power-law kernel of order a in
(0, 1], k(u) = u^(a-1) / Gamma(a), turns the equation into the
fractional relaxation problem whose solution is the Mittag-Leffler
curve E_a(-rate * t^a); at a = 1 both kernels coincide.

The power-law path is solved numerically with an implicit product
trapezoidal rule: on each step the kernel is integrated exactly against
a piecewise linear interpolant of Q.  All steps together form one
lower-triangular Toeplitz system, since the history weights depend only
on the lag, and it is solved at once: the reciprocal of the system's
first column as a power series (Newton doubling with FFT products),
times the right-hand side.  That costs O(N log N) operations for N
steps, where stepping through the history costs O(N^2), and gives the
same values up to rounding.  The rule is unconditionally stable here
(the diagonal is 1 + lam with lam > 0) and its accuracy self-reported:
the solver reruns at half the step and charges twice the largest node
difference to est_error.  Because the exact solution behaves like
1 - rate * t^a / Gamma(1+a) near zero, the observed convergence order
lands between 1 and 2 rather than at the smooth-case 2.

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

__all__ = [
    "DeltaKernel",
    "PowerLawKernel",
    "RelaxationProblem",
    "RelaxationSolution",
    "solve_relaxation",
    "caputo_l1",
]


@dataclass(frozen=True)
class DeltaKernel:
    """Memoryless kernel; relaxation is exponential with the given rate."""


@dataclass(frozen=True)
class PowerLawKernel:
    """Kernel u^(order-1) / Gamma(order) with order in (0, 1]."""

    order: float

    def __post_init__(self):
        if not (0.0 < self.order <= 1.0):
            raise DomainError(f"order must lie in (0, 1], got {self.order}")


@dataclass(frozen=True)
class RelaxationProblem:
    """One relaxation run: kernel, coupling rate, horizon, and grid step
    (fewer than 2^23 steps)."""

    kernel: object
    rate: float = 1.0
    t_max: float = 1.0
    step: float = 0.01

    def __post_init__(self):
        if not isinstance(self.kernel, (DeltaKernel, PowerLawKernel)):
            raise DomainError(f"unsupported kernel: {self.kernel!r}")
        if not (0.0 < self.rate < math.inf):
            raise DomainError(f"rate must be positive and finite, got {self.rate}")
        if not (0.0 < self.t_max < math.inf):
            raise DomainError(f"t_max must be positive and finite, got {self.t_max}")
        if not (0.0 < self.step <= self.t_max):
            raise DomainError(
                f"step must lie in (0, t_max], got {self.step}"
            )
        # the check run at half the step keeps below 2^24 nodes (~1 GB)
        if self.t_max / self.step + 1e-9 >= 2**23:
            raise DomainError(f"t_max / step = {self.t_max / self.step:.3g}; "
                              "the half-step grid must keep below 2^24 nodes")


@dataclass(frozen=True)
class RelaxationSolution:
    """Grid solution of one relaxation problem.

    ``times`` runs from 0 in steps of the requested size; ``values``
    holds Q on those nodes.  ``est_error`` bounds the largest absolute
    node error (0 signals an exact closed form was used, reported in
    ``method``).
    """

    times: np.ndarray
    values: np.ndarray
    est_error: float
    method: str

    def at(self, t):
        """Linear interpolation of the curve inside the solved range."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.times[-1] * (1 + 1e-12)):
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

    Delta kernels use the closed form.  Power-law kernels solve the
    product-trapezoidal rule twice, each as one Toeplitz solve in
    O(N log N) operations for N steps, at the requested step and at
    half of it, and report twice the largest disagreement on shared
    nodes as est_error; the returned values are those of the requested
    step, so refining the step refines the curve the caller sees.
    """
    times = _grid(problem.t_max, problem.step)
    if isinstance(problem.kernel, DeltaKernel):
        values = np.exp(-problem.rate * times)
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
    if not (0.0 < order <= 1.0):
        raise DomainError(f"order must lie in (0, 1], got {order}")
    if not (1 <= index < arr.size):
        raise DomainError(f"index must lie in [1, {arr.size - 1}], got {index}")
    if not (0.0 < step < math.inf):
        raise DomainError(f"step must be positive and finite, got {step}")
    k = np.arange(index, dtype=float)
    shifted = k ** (1.0 - order)
    shifted[0] = 0.0  # 0^0 must read as 0 here so order = 1 degrades to a difference
    weights = (k + 1.0) ** (1.0 - order) - shifted
    diffs = arr[index : 0 : -1] - arr[index - 1 :: -1][: index]
    scale = step**-order / math.gamma(2.0 - order)
    return float(scale * np.dot(weights, diffs))
