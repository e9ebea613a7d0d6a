"""Statistics accumulated over a renewal event stream.

Every event of the stream carries an i.i.d. positive jump.  Two
functionals of the jumps seen up to time ``t`` are tracked: their sum
and their maximum.  Both laws follow from the count distribution by
mixing over the number of events,

    P(sum <= u) = sum_n pmf_n(t) * F*n(u)     (F*n: n-fold convolution)
    P(max <= w) = sum_n pmf_n(t) * F(w)**n

with the convention that an empty stream contributes a statistic equal
to zero.  The max mixture is geometric in F(w) and collapses through
the count generating function that every waiting law supplies:
exp(-rate * S(w) * t) for exponential waits, and the Mittag-Leffler
survival E_a(-S(w) * t**a) for heavy-tailed waits, where S = 1 - F is
the jump survival.  That generating function is the only route to the
max law; no count table is summed for it.  Unit-rate exponential waits
with unit-rate exponential jumps give the classical double-exponential
law exp(-t * exp(-w)).

The sum mixture is summed term by term whenever the jump law has an
exact n-fold cdf: Erlang for exponential jumps, lattice steps for
degenerate jumps, the alternating polynomial form for uniform jumps
(numerically safe only up to moderate n).  In all other cases the
convolution powers are built on a uniform grid by FFT convolution and
the reported error bound is taken from a step-halving comparison.

Each statistic also has a one-number transform of its jump law: the
Laplace-Stieltjes value for the sum, the plain cdf value for the max.
Feeding that number to the marginal symbol of the transform module
yields the statistic's law in the time-Laplace domain.  Pareto jumps
have no elementary transform, so the sum-side number is refused for
them rather than approximated.

Marginals of a finite-state chain whose state is redrawn at every
event follow the same mixing pattern with powers of the transition
matrix in place of convolution powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammainc

from .errors import AccuracyError, CapabilityError, DomainError
from .renewal import (
    CountingPmfTable,
    Exponential,
    MittagLeffler,
    _check_waiting_law,
    _draw,
    counting_pmf,
)

__all__ = [
    "StatisticKind",
    "ExponentialJumps",
    "UniformJumps",
    "ParetoJumps",
    "DegenerateJumps",
    "TransitionMatrix",
    "mixture_cdf",
    "sum_cdf_series",
    "max_cdf",
    "statistic_transform",
    "semi_markov_marginal",
]

# the alternating n-fold form for uniform jumps loses ~eps * max_term
# to cancellation; beyond this n the grid path is more accurate
_UNIFORM_EXACT_MAX_N = 15

# grid-convolution refinement: start size, hard cap on doublings
_GRID_START = 4096
_GRID_MAX = 1 << 18


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-d arrays by FFT."""
    n = a.size + b.size - 1
    m = next_fast_len(n, real=True)
    return irfft(rfft(a, m) * rfft(b, m), m)[:n]


class StatisticKind(Enum):
    """Which functional of the jump sequence is accumulated."""

    SUM = "sum"
    MAX = "max"


def _positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _check_jump_law(jumps) -> None:
    for attr in ("cdf", "sf", "lst", "nfold_cdf", "nfold_error", "sample"):
        if not callable(getattr(jumps, attr, None)):
            raise DomainError(
                f"jump law {jumps!r} lacks a callable {attr!r} method"
            )


def _nonnegative_array(x, name: str):
    """Validate and widen to float array; remembers scalar-ness."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError(f"{name} values must be non-negative and finite")
    return arr, np.isscalar(x) or arr.ndim == 0


@dataclass(frozen=True)
class ExponentialJumps:
    """Exponential jump sizes with the given rate."""

    rate: float = 1.0

    def __post_init__(self):
        _positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, np.exp(-self.rate * np.maximum(x, 0.0)), 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def lst(self, s):
        return self.rate / (self.rate + s)

    def nfold_cdf(self, x, n: int):
        # Erlang(n, rate): regularized lower incomplete gamma
        if n == 0:
            return (np.asarray(x, dtype=float) >= 0.0).astype(float)
        return gammainc(n, self.rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def nfold_error(self, n: int) -> float:
        return 1e-14

    def sample(self, rng: np.random.Generator, size=None):
        return _draw(rng, size, lambda n: -np.log(1.0 - rng.random(n)) / self.rate)


@dataclass(frozen=True)
class UniformJumps:
    """Jump sizes uniform on (0, upper]."""

    upper: float = 1.0

    def __post_init__(self):
        _positive("upper", self.upper)

    @property
    def mean(self) -> float:
        return 0.5 * self.upper

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float) / self.upper, 0.0, 1.0)

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= self.upper)
        return np.where(inside, 1.0 / self.upper, 0.0)

    def lst(self, s):
        s = np.asarray(s)
        sb = s * self.upper
        # remove the 0/0 at s = 0; the transform tends to 1 there
        safe = np.where(sb == 0.0, 1.0, sb)
        if np.iscomplexobj(sb):
            vals = (1.0 - np.exp(-safe)) / safe
        else:
            vals = -np.expm1(-safe) / safe
        out = np.where(sb == 0.0, 1.0, vals)
        return out if out.ndim else out[()]

    def nfold_cdf(self, x, n: int):
        """Alternating polynomial form of the n-fold cdf.

        The terms C(n, k) (x/b - k)^n / n! alternate in sign and grow
        with n while the result stays in [0, 1], so cancellation limits
        this to small n; callers switch to grid convolution beyond
        _UNIFORM_EXACT_MAX_N.
        """
        if n == 0:
            return (np.asarray(x, dtype=float) >= 0.0).astype(float)
        if n > _UNIFORM_EXACT_MAX_N:
            raise CapabilityError(
                f"exact uniform n-fold cdf is unstable for n={n} "
                f"(limit {_UNIFORM_EXACT_MAX_N})"
            )
        y = np.clip(np.asarray(x, dtype=float) / self.upper, 0.0, float(n))
        acc = np.zeros_like(y)
        fact = float(math.factorial(n))
        for k in range(n + 1):
            shifted = np.maximum(y - k, 0.0)
            coeff = ((-1.0) ** k) * (math.comb(n, k) / fact)
            acc += coeff * shifted**n
        return np.clip(acc, 0.0, 1.0)

    def nfold_error(self, n: int) -> float:
        # cancellation loss ~ n * eps * max term, max term ~ e^n / sqrt(2 pi n)
        if n == 0:
            return 0.0
        return 2.3e-16 * math.sqrt(n / (2.0 * math.pi)) * math.exp(n)

    def sample(self, rng: np.random.Generator, size=None):
        return _draw(rng, size, lambda n: self.upper * (1.0 - rng.random(n)))


@dataclass(frozen=True)
class ParetoJumps:
    """Pareto jump sizes: survival (scale / x) ** exponent for x >= scale.

    The mean is scale * exponent / (exponent - 1) when exponent > 1 and
    infinite otherwise.  No elementary Laplace transform exists, so the
    transform-domain view of sums of these jumps is unavailable.
    """

    scale: float = 1.0
    exponent: float = 1.5

    def __post_init__(self):
        _positive("scale", self.scale)
        _positive("exponent", self.exponent)

    @property
    def mean(self) -> float:
        if self.exponent <= 1.0:
            return math.inf
        return self.scale * self.exponent / (self.exponent - 1.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        ratio = self.scale / np.maximum(x, self.scale)
        return np.where(x >= self.scale, 1.0 - ratio**self.exponent, 0.0)

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.maximum(x, self.scale)
        dens = self.exponent * self.scale**self.exponent / xs ** (self.exponent + 1.0)
        return np.where(x >= self.scale, dens, 0.0)

    def lst(self, s):
        raise CapabilityError(
            "Pareto jumps have no elementary Laplace-Stieltjes transform"
        )

    def nfold_cdf(self, x, n: int):
        if n == 0:
            return (np.asarray(x, dtype=float) >= 0.0).astype(float)
        if n == 1:
            return self.cdf(x)
        raise CapabilityError(
            "Pareto convolution powers have no closed form; "
            "use the grid path of mixture_cdf"
        )

    def nfold_error(self, n: int) -> float:
        return 0.0 if n <= 1 else math.inf

    def sample(self, rng: np.random.Generator, size=None):
        return _draw(
            rng,
            size,
            lambda n: self.scale * (1.0 - rng.random(n)) ** (-1.0 / self.exponent),
        )


@dataclass(frozen=True)
class DegenerateJumps:
    """Every jump has the same fixed positive size."""

    value: float = 1.0

    def __post_init__(self):
        _positive("value", self.value)

    @property
    def mean(self) -> float:
        return self.value

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.value).astype(float)

    def sf(self, x):
        return (np.asarray(x, dtype=float) < self.value).astype(float)

    def lst(self, s):
        return np.exp(-self.value * np.asarray(s))

    def nfold_cdf(self, x, n: int):
        return (np.asarray(x, dtype=float) >= n * self.value).astype(float)

    def nfold_error(self, n: int) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size=None):
        return _draw(rng, size, lambda n: np.full(n, self.value))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix of an embedded jump chain."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DomainError(f"matrix must be square, got shape {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError("matrix entries must lie in [0, 1]")
        rows = arr.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise DomainError("matrix rows must each sum to one")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def is_absorbing(self, state: int) -> bool:
        if not (0 <= state < self.n_states):
            raise DomainError(f"state {state} out of range")
        return self.matrix[state, state] == 1.0

    def cumulative(self) -> np.ndarray:
        """Row-wise cumulative sums, for inverse-cdf state stepping."""
        return np.cumsum(self.matrix, axis=1)


def mixture_cdf(kind: StatisticKind, jumps, waits, t: float, u, tol: float = 1e-8):
    """Law of a statistic at time t, as a mixture over the event count.

    The max mixture sum_n pmf_n(t) * F(u)**n is the count generating
    function at F(u), which the waiting law evaluates in closed form
    (see :func:`max_cdf`) within the 1e-10 guarantee of the
    Mittag-Leffler evaluator, so ``tol`` governs the sum only.  The sum
    mixture sum_n pmf_n(t) * F*n(u) is summed over a count table built
    to hold all but a quarter of ``tol`` of the mass, and raises
    AccuracyError when its total error bound cannot be pushed below
    ``tol``.  Scalar ``u`` gives a float, an array gives an array of the
    same shape.
    """
    if not isinstance(kind, StatisticKind):
        raise DomainError(f"kind must be a StatisticKind, got {kind!r}")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"time must be non-negative and finite, got {t}")
    _check_jump_law(jumps)
    _check_waiting_law(waits)
    if kind is StatisticKind.MAX:
        return _max_mixture(jumps, waits, t, u)
    table = counting_pmf(waits, t, mass_target=1.0 - 0.25 * tol)
    return _sum_mixture(table, jumps, u, tol)


def _max_mixture(jumps, waits, t: float, w):
    """E F(w)^N(t) = waits.count_pgf(t, S(w)), with S the jump survival."""
    w_arr, scalar = _nonnegative_array(w, "w")
    sf = np.asarray(jumps.sf(np.atleast_1d(w_arr)), dtype=float)
    out = np.clip(waits.count_pgf(t, sf), 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(w_arr.shape)


def _sum_mixture(table: CountingPmfTable, jumps, u, tol: float):
    """Cdf of the random sum with event counts drawn from ``table``.

    Evaluates sum_n pmf_n * F*n(u).  Jump laws with an exact n-fold cdf
    for every table entry are summed directly; otherwise the convolution
    powers are built on a uniform grid at two resolutions and the
    difference between them is charged to the error bound.  Raises
    AccuracyError, carrying the best values, when the bound cannot be
    pushed below ``tol``; the count mass beyond the table
    (``table.tail_bound``) is always part of the bound.
    """
    u_arr, scalar = _nonnegative_array(u, "u")

    pmf = table.probabilities
    tail = table.tail_bound
    if tail >= tol:
        raise AccuracyError(
            f"count table leaves {tail:.3e} mass uncovered, above tol={tol:.3e}",
            value=None,
            est_error=tail,
        )

    values = pmf[0] * np.ones_like(u_arr)
    est = tail
    for n in range(1, len(pmf)):
        term_err = _nfold_term_error(jumps, n, pmf[n])
        try:
            if est + term_err > tol:
                raise CapabilityError("exact n-fold error budget exhausted")
            values = values + pmf[n] * jumps.nfold_cdf(u_arr, n)
            est += term_err
        except CapabilityError:
            # terms from n on contribute between zero and the leftover
            # count mass; truncate if that fits the budget, else add the
            # remaining terms from the grid (their small weights scale
            # the grid error down with them)
            leftover = float(pmf[n:].sum())
            if est + leftover <= tol:
                est += leftover
            else:
                partial, grid_est = _grid_mixture(pmf, jumps, u_arr, tol - est, n)
                values = values + partial
                est += grid_est
            break

    if est > tol:
        raise AccuracyError(
            f"sum cdf error bound {est:.3e} exceeds tol={tol:.3e}",
            value=float(values[()]) if scalar else values,
            est_error=est,
        )
    values = np.clip(values, 0.0, 1.0)
    return float(values[()]) if scalar else values


def _nfold_term_error(jumps, n: int, weight: float) -> float:
    err = jumps.nfold_error(n)
    if not math.isfinite(err):
        return math.inf if weight > 0.0 else 0.0
    return weight * err


def _grid_mixture(pmf, jumps, u_arr, budget, n_lo):
    """Partial mixture sum over n >= n_lo of pmf_n * F*n(u), on a grid.

    Convolution powers are built iteratively on [0, max(u)] with the
    jump law discretized as cell masses F(y + h/2) - F(y - h/2), a
    midpoint rule in the measure that stays second order even when the
    density jumps (as the uniform one does at its endpoint).  The grid
    is doubled until two consecutive resolutions agree within the
    budget; the last difference is the returned error estimate.
    """
    u_max = float(u_arr.max()) if u_arr.size else 0.0
    if u_max == 0.0 or n_lo >= len(pmf):
        # positive jumps put no n >= 1 mass at or below zero
        return np.zeros_like(u_arr), 0.0

    def level(m: int):
        grid = np.linspace(0.0, u_max, m + 1)
        h = u_max / m
        mass = np.asarray(
            jumps.cdf(grid + 0.5 * h) - jumps.cdf(grid - 0.5 * h), dtype=float
        )
        power = np.asarray(jumps.cdf(grid), dtype=float)
        acc = pmf[1] * power if n_lo <= 1 else np.zeros_like(power)
        for n in range(2, len(pmf)):
            power = np.clip(fftconvolve(power, mass)[: m + 1], 0.0, 1.0)
            if n >= n_lo:
                acc = acc + pmf[n] * power
        return np.interp(u_arr, grid, acc)

    m = _GRID_START
    prev = level(m)
    est = math.inf
    while m < _GRID_MAX:
        m *= 2
        cur = level(m)
        est = float(np.max(np.abs(cur - prev))) if u_arr.size else 0.0
        prev = cur
        if est <= 0.25 * budget:
            break
    return prev, est


def sum_cdf_series(jumps, rate: float, t: float, u, tol: float = 1e-8):
    """P(sum of jumps up to time t <= u) for a constant-rate stream.

    The event count is Poisson(rate * t); the series over its pmf is the
    sum-statistic mixture, so this is a thin wrapper fixing the waiting
    law to the exponential one.  Scalar ``u`` gives a float, an array
    gives an array of the same shape.
    """
    _positive("rate", rate)
    return mixture_cdf(StatisticKind.SUM, jumps, Exponential(rate), t, u, tol=tol)


def max_cdf(order: float, jumps, t: float, w):
    """P(largest jump up to time t <= w), in closed form.

    Counts follow the fractional stream of the given order; the
    geometric mixture over the count collapses through its generating
    function into E_a(-S(w) * t**a) with S the jump survival, which is
    evaluated directly to keep w deep in the tail from cancelling.  At
    order one this is exp(-S(w) * t), the double-exponential law when
    the jumps are unit-rate exponential.  An empty stream has maximum
    zero, hence the value at w = 0 is the probability of no events.
    """
    waits = MittagLeffler(order)
    if not (0.0 <= t < math.inf):
        raise DomainError(f"time must be non-negative and finite, got {t}")
    _check_jump_law(jumps)
    return _max_mixture(jumps, waits, t, w)


def statistic_transform(kind: StatisticKind, jumps, w: float) -> float:
    """One-number transform of the jump law matching a statistic kind.

    For the sum this is the Laplace-Stieltjes value E exp(-w * X), for
    the max the plain cdf value F(w); in both cases the n-fold statistic
    transforms to the n-th power of the returned number.  Pareto jumps
    make the sum case unavailable.
    """
    if not isinstance(kind, StatisticKind):
        raise DomainError(f"kind must be a StatisticKind, got {kind!r}")
    _check_jump_law(jumps)
    if not np.isfinite(w) or w < 0.0:
        raise DomainError(f"w must be non-negative and finite, got {w}")
    if kind is StatisticKind.MAX:
        return float(jumps.cdf(w))
    return float(jumps.lst(w))  # CapabilityError for Pareto


def semi_markov_marginal(q: TransitionMatrix, i: int, waits, t: float, tol: float = 1e-8) -> np.ndarray:
    """Row i of the chain's transition law at time t: P(state at t = j |
    started in i) for every state j, for a chain over ``q``.

    The state changes only at stream events, stepping by one draw from
    the transition matrix each time, so conditioning on the event count
    gives

        p_ij(t) = sum_n pmf_n(t) * (q**n)_ij

    with the n = 0 term the no-event survival times the indicator of
    i == j.  The count table is built to hold all but half of ``tol``
    of the mass; since every matrix power entry is a probability, its
    uncovered mass bounds the truncation error of each entry, and the
    row sums land within ``tol`` of one.  Raises AccuracyError, carrying
    the row, when the table cannot cover the mass to within ``tol``.
    """
    if not isinstance(q, TransitionMatrix):
        raise DomainError(f"q must be a TransitionMatrix, got {q!r}")
    if not isinstance(i, (int, np.integer)) or not (0 <= i < q.n_states):
        raise DomainError(f"state i={i!r} out of range for {q.n_states} states")
    if not (0.0 <= t < math.inf):
        raise DomainError(f"time must be non-negative and finite, got {t}")
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    table = counting_pmf(waits, t, mass_target=1.0 - 0.5 * tol)
    pmf = table.probabilities
    # row i of successive matrix powers, by repeated multiplication
    row = np.zeros(q.n_states)
    row[i] = 1.0
    value = pmf[0] * row
    for n in range(1, len(pmf)):
        row = row @ q.matrix
        value += pmf[n] * row
    if table.tail_bound > tol:
        raise AccuracyError(
            f"count table leaves {table.tail_bound:.3e} mass uncovered, "
            f"above tol={tol:.3e}",
            value=value,
            est_error=table.tail_bound,
        )
    return value
