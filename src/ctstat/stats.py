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

The sum mixture has two routes.  Jump laws with an exact n-fold cdf
(Erlang for exponential jumps, lattice steps for degenerate jumps) are
summed term by term.  Uniform and Pareto jumps instead apply the count
generating function G(z) = sum_n pmf_n z^n to the transform of the jump
law discretized on a lattice, so that one FFT pair yields every
convolution power at once (Embrechts & Frei 2009): the lattice is
aligned with the breakpoints of the jump law, tilted against
wrap-around, corrected exactly for a single jump and extrapolated in
the step by Richardson's rule, whose last correction is the reported
error estimate.

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

# accuracy of one exact n-fold cdf (incomplete gamma, lattice step)
_EXACT_TERM_ERROR = 1e-14

# sum lattice: cells per jump-law piece at the coarsest step, cap on the
# cells of the finest step, padding factor and tilt (theta * length)
_CELLS_PER_PIECE = 64
_LATTICE_MAX_CELLS = 1 << 19
_PAD = 3
_TILT = 20.0


class StatisticKind(Enum):
    """Which functional of the jump sequence is accumulated."""

    SUM = "sum"
    MAX = "max"


def _positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _check_jump_law(jumps) -> None:
    for attr in ("cdf", "sf", "lst", "sample"):
        if not callable(getattr(jumps, attr, None)):
            raise DomainError(
                f"jump law {jumps!r} lacks a callable {attr!r} method"
            )
    if not (callable(getattr(jumps, "nfold_cdf", None)) or hasattr(jumps, "piece")):
        raise DomainError(f"jump law {jumps!r} has neither 'nfold_cdf' nor 'piece'")


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

    @property
    def piece(self) -> float:
        """Spacing of the breakpoints of every n-fold law."""
        return self.upper

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

    @property
    def piece(self) -> float:
        """Spacing of the breakpoints of every n-fold law."""
        return self.scale

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
    reads a count table built to hold all but a quarter of ``tol`` of
    the mass, either term by term (exponential and degenerate jumps) or
    through its generating function on a jump lattice (uniform and
    Pareto jumps), and raises AccuracyError when its total error bound
    cannot be pushed below ``tol``.  Scalar ``u`` gives a float, an
    array gives an array of the same shape.
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

    Jump laws with an exact n-fold cdf are summed term by term,
    sum_n pmf_n * F*n(u).  All others go through the jump lattice of
    :func:`_lattice_mixture`, whose extrapolation estimate enters the
    bound.  The count mass beyond the table (``table.tail_bound``) is
    always part of the bound; AccuracyError, carrying the best values,
    is raised when the bound exceeds ``tol``.
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
    if callable(getattr(jumps, "nfold_cdf", None)):
        values = sum(p * jumps.nfold_cdf(u_arr, n) for n, p in enumerate(pmf))
        est = tail + _EXACT_TERM_ERROR
    else:
        values, est = _lattice_mixture(pmf, jumps, u_arr, tol - tail)
        est += tail
    if values is not None and scalar:
        values = float(values[()])
    if est > tol:
        raise AccuracyError(
            f"sum cdf error bound {est:.3e} exceeds tol={tol:.3e}",
            value=values,
            est_error=est,
        )
    values = np.clip(values, 0.0, 1.0)
    return float(values) if scalar else values


def _half_cells(mass: np.ndarray) -> np.ndarray:
    """Cdf at the nodes of a lattice law whose node masses stand for
    their cells: the cells below plus half the node's own, and zero at
    node 0, where a positive jump puts no mass."""
    out = np.cumsum(mass) - 0.5 * mass
    out[0] = 0.0
    return out


def _lattice_level(pmf: np.ndarray, jumps, h: float, m: int) -> np.ndarray:
    """Sum cdf less its single-jump term, at the nodes 0..m of step h.

    The jump law becomes midpoint cell masses f_j = F(jh + h/2) -
    F(jh - h/2).  Tilting them by exp(-theta y), with theta times the
    padded length equal to _TILT, damps what the circular FFT wraps
    around by exp(-_TILT); G - pmf_0 applied to their transform gives
    every convolution power with its count weight in one pass.  The
    single-jump term pmf_1 * F, whose jump in density the half-cell
    reading renders only to first order, is taken out here and added
    back exactly by the caller.
    """
    f = np.diff(np.asarray(jumps.cdf(h * (np.arange(m + 1) + 0.5)), dtype=float), prepend=0.0)
    n = next_fast_len(_PAD * (m + 1), real=True)
    tilt = np.exp(-_TILT / n * np.arange(m + 1))
    phi = rfft(f * tilt, n)
    g = np.zeros_like(phi)
    for p in pmf[:0:-1]:  # Horner: sum_{n >= 1} pmf_n phi^n
        g = (g + p) * phi
    c = irfft(g, n)[: m + 1] / tilt
    return pmf[0] + _half_cells(c) - pmf[1] * _half_cells(f)


def _lattice_mixture(pmf: np.ndarray, jumps, u_arr: np.ndarray, budget: float):
    """sum_n pmf_n * F*n(u) from the count generating function on a
    lattice, with its error estimate.

    The domain [0, max u] is widened to whole pieces of the jump law
    (``jumps.piece``), at whose multiples the n-fold laws have their
    breakpoints, or cut where the table's sums of bounded jumps end; the
    coarse step is a 64th of a piece.  Levels at steps h, h/2, h/4, ...
    are read on the coarse nodes and combined by Richardson's rule,
    R = (4 L_{h/2} - L_h) / 3; levels are added while the last change
    in R (the estimate) exceeds ``budget`` and the finest lattice stays
    within _LATTICE_MAX_CELLS.  Off-node u are read by 4-point Lagrange
    interpolation inside one piece, and the single-jump term
    pmf_1 * F(u) is added exactly.  Returns (values, est), values None
    when not even the coarse lattice fits the cap.
    """
    pmf = np.append(pmf, 0.0)  # pmf[1] exists even for a one-entry table
    b = float(jumps.piece)
    k = _CELLS_PER_PIECE
    pieces = max(1, math.ceil(float(u_arr.max(initial=0.0)) / b))
    if float(jumps.sf(b)) == 0.0:
        # jumps of at most one piece: the table's sums end within pmf.size pieces
        pieces = min(pieces, pmf.size)
    levels, extrap, est = [], [], math.inf
    while est > budget and pieces * k << len(levels) <= _LATTICE_MAX_CELLS:
        step = 1 << len(levels)
        levels.append(_lattice_level(pmf, jumps, b / (k * step), pieces * k * step)[::step])
        if len(levels) > 1:
            extrap.append((4.0 * levels[-1] - levels[-2]) / 3.0)
        if len(extrap) > 1:
            est = float(np.max(np.abs(extrap[-1] - extrap[-2])))
    if not levels:
        return None, est
    best = (extrap or levels)[-1]
    u_in = np.minimum(u_arr, pieces * b)  # the lattice part is flat beyond its domain
    x = u_in * (k / b)
    first = k * np.minimum(np.floor(u_in / b), pieces - 1)  # first node of u's piece
    i = np.clip(np.floor(x) - 1.0, first, first + k - 3).astype(int)
    s = x - i
    values = (
        -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0 * best[i]
        + s * (s - 2.0) * (s - 3.0) / 2.0 * best[i + 1]
        - s * (s - 1.0) * (s - 3.0) / 2.0 * best[i + 2]
        + s * (s - 1.0) * (s - 2.0) / 6.0 * best[i + 3]
    )
    return values + pmf[1] * np.asarray(jumps.cdf(u_arr), dtype=float), est


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
