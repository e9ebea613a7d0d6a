"""Inter-event laws, renewal epochs, and the counting process.

A stream of events is specified by the common law of its waiting times.
Two laws are supported: exponential waits (the classical memoryless
case, counts are Poisson) and Mittag-Leffler waits of order ``a`` in
(0, 1], whose survival function is ``E_a(-t^a)``.  The latter has
infinite mean for ``a < 1`` and makes the event count grow like ``t^a``
instead of linearly; at ``a = 1`` it coincides with unit-rate
exponential waits.  Both implement the ``WaitingLaw`` protocol, the
only way the other modules reach a waiting law.

The number of events up to ``t`` counts epochs inclusively:
``N(t) = max{n : T_n <= t}`` with ``T_n`` the n-th partial sum of
waits, so an event landing exactly at ``t`` is in the count.  Its law
is Poisson, or one Talbot inversion per block of counts for
Mittag-Leffler waits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import AccuracyError, DomainError
from .special import _check_order, ml_survival, ml_values

__all__ = [
    "Exponential",
    "MittagLeffler",
    "sample_waiting_time",
    "EpochSequence",
    "generate_epochs",
    "count_at",
    "CountingPmfTable",
    "counting_pmf",
]

# extend pmf tables until this much mass is covered when no explicit
# n_max is requested
_PMF_MASS_TARGET = 1.0 - 1e-6
_PMF_HARD_CAP = 10_000
_PMF_BLOCK = 4096  # entries per contour call: 4096 x 24 nodes, about 1.5 MB


class WaitingLaw:
    """Protocol shared by the waiting-time laws.

    Every law supplies ``sample(rng, size)``, the Laplace transforms
    ``density_lt(s)`` and ``survival_lt(s)`` of its density and survival
    function, and ``count_pgf(t, x) = E (1 - x)^N(t)``, the generating
    function of the event count taken at ``z = 1 - x``, for times ``t``
    and arguments ``x`` that broadcast together.  Passing the complement
    keeps ``x`` deep in a jump tail, where ``z`` would round to one, from
    cancelling.
    """


def _check_waiting_law(law) -> None:
    if not isinstance(law, WaitingLaw):
        raise DomainError(f"unsupported inter-event law: {law!r}")


def _positive(name: str, value: float) -> None:
    if not (0.0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _check_rng(rng) -> None:
    if not isinstance(rng, np.random.Generator):
        raise DomainError(
            f"rng must be a numpy Generator, got {type(rng).__name__}"
        )


def _draw(rng: np.random.Generator, size, fn):
    """Front of every sampler: ``fn(n)`` draws n variates from ``rng``.

    Scalar for size=None, else an array of ``size`` draws.  Uniforms are
    taken as 1 - random() so the open endpoint sits at zero.
    """
    _check_rng(rng)
    n = 1 if size is None else int(size)
    if n < 0:
        raise DomainError(f"size must be non-negative, got {size}")
    out = fn(n)
    return float(out[0]) if size is None else out


@dataclass(frozen=True)
class Exponential(WaitingLaw):
    """Exponential waiting times with the given rate."""

    rate: float = 1.0

    def __post_init__(self):
        _positive("rate", self.rate)

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size=None):
        return _draw(rng, size, lambda n: -np.log(1.0 - rng.random(n)) / self.rate)

    def density_lt(self, s):
        return self.rate / (self.rate + s)

    def survival_lt(self, s):
        return 1.0 / (self.rate + s)

    def count_pgf(self, t, x):
        """Poisson counts: exp(-rate * x * t)."""
        return np.exp(-self.rate * np.asarray(x, dtype=float) * t)


@dataclass(frozen=True)
class MittagLeffler(WaitingLaw):
    """Mittag-Leffler waiting times of order in (0, 1].

    Survival E_order(-t^order); heavy tailed with infinite mean for
    order < 1, identical to Exponential(1) at order = 1.
    """

    order: float

    def __post_init__(self):
        _check_order(self.order)

    def survival(self, t):
        return ml_survival(self.order, t)

    def mean(self) -> float:
        return 1.0 if self.order == 1.0 else math.inf

    def sample(self, rng: np.random.Generator, size=None):
        """Two-uniform product representation

            J = -log(U) * (sin(a*pi*(1-V)) / sin(a*pi*V)) ** (1/a)

        which reduces to plain -log(U) at a = 1.
        """
        a = self.order

        def variates(n: int) -> np.ndarray:
            base = -np.log(1.0 - rng.random(n))
            if a == 1.0:
                return base
            v = 1.0 - rng.random(n)
            ap = a * math.pi
            return base * (np.sin(ap * (1.0 - v)) / np.sin(ap * v)) ** (1.0 / a)

        return _draw(rng, size, variates)

    def density_lt(self, s):
        return 1.0 / (1.0 + s**self.order)

    def survival_lt(self, s):
        return s ** (self.order - 1.0) / (1.0 + s**self.order)

    def count_pgf(self, t, x):
        """Fractional Poisson counts: E_a(-x * t^a) (Beghin & Orsingher 2009)."""
        return ml_values(self.order, -np.asarray(x, dtype=float) * t**self.order)


def sample_waiting_time(law, rng: np.random.Generator, size=None):
    """Draw waiting times from ``law``; scalar for size=None, else an array."""
    _check_waiting_law(law)
    return law.sample(rng, size)


@dataclass(frozen=True)
class EpochSequence:
    """Event epochs of one realization on [0, horizon], sorted ascending."""

    times: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return self.times.size

    def count_at(self, t: float) -> int:
        return count_at(self, t)


def generate_epochs(law, rng: np.random.Generator, horizon: float) -> EpochSequence:
    """Simulate one event stream up to the given horizon."""
    _check_rng(rng)
    if not (0.0 <= horizon < math.inf):
        raise DomainError(f"horizon must be non-negative and finite, got {horizon}")
    chunks = []
    total = 0.0
    batch = 64
    while True:
        waits = sample_waiting_time(law, rng, size=batch)
        csum = total + np.cumsum(waits)
        if csum[-1] > horizon:
            inside = csum[csum <= horizon]
            chunks.append(inside)
            break
        chunks.append(csum)
        total = float(csum[-1])
        batch = min(2 * batch, 8192)
    times = np.concatenate(chunks) if chunks else np.empty(0)
    return EpochSequence(times=times, horizon=horizon)


def count_at(epochs, t: float) -> int:
    """Number of epochs in [0, t], the boundary inclusive."""
    if isinstance(epochs, EpochSequence):
        if t > epochs.horizon:
            raise DomainError(
                f"count requested at t={t} beyond the simulated horizon "
                f"{epochs.horizon}"
            )
        times = epochs.times
    else:
        times = np.asarray(epochs, dtype=float)
    if t < 0.0 or math.isnan(t):
        raise DomainError(f"time must be non-negative, got {t}")
    return int(np.searchsorted(times, t, side="right"))


@dataclass(frozen=True)
class CountingPmfTable:
    """P(N(t) = n) for n = 0 .. len(probabilities)-1, plus the mass
    beyond the table.

    tail_bound equals P(N(t) > n_max) computed from the partial-sum
    identity: the count exceeds n_max exactly when the (n_max+1)-th
    epoch has already arrived.
    """

    law: object
    t: float
    probabilities: np.ndarray
    tail_bound: float

    def __len__(self) -> int:
        return self.probabilities.size

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.probabilities)

    def mean(self) -> float:
        n = np.arange(self.probabilities.size)
        return float(np.dot(n, self.probabilities))


def _poisson_pmf(mu: float, n: np.ndarray) -> np.ndarray:
    return np.exp(n * math.log(mu) - mu - gammaln(n + 1.0)) if mu > 0 else (
        (n == 0).astype(float)
    )


def counting_pmf(
    law, t: float, n_max: int | None = None, mass_target: float | None = None
) -> CountingPmfTable:
    """Distribution of the event count at time ``t``.

    With ``n_max`` given the table covers n = 0 .. n_max.  Without it,
    the table is extended until it holds at least ``mass_target`` of the
    mass (default ``1 - 1e-6``, hard cap 10000 entries).

    Exponential waits, and Mittag-Leffler waits of order one, use the
    Poisson closed form.  Other Mittag-Leffler waits invert the
    transform (1 - d(s))/s * d(s)^n on the Talbot contour, which carries
    ~1e-10 absolute error per entry; tiny negative results of the
    quadrature are clipped to zero.  Each block of entries is one contour
    call; the first spans the count's mean plus 8 sd, later ones double,
    none exceeds 4096 entries, and the table is cut where the sequential
    running sum first reaches ``mass_target``.  A table and its tail
    must account for the whole mass within the budget
    ``1 - mass_target``; otherwise AccuracyError carries the table and
    the gap.
    """
    if not (0.0 <= t < math.inf):
        raise DomainError(f"time must be non-negative and finite, got {t}")
    if n_max is not None and n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max}")
    if mass_target is None:
        mass_target = _PMF_MASS_TARGET
    elif not (0.0 < mass_target < 1.0):
        raise DomainError(f"mass_target must lie in (0, 1), got {mass_target}")

    if not isinstance(law, (Exponential, MittagLeffler)):
        raise DomainError(f"unsupported inter-event law: {law!r}")
    if isinstance(law, Exponential) or law.order == 1.0 or t == 0.0:
        # Poisson counts: order one is Exponential(1); no events at t = 0
        mu = getattr(law, "rate", 1.0) * t
        order, x = 1.0, mu

        def entries(lo: int, hi: int) -> np.ndarray:
            return _poisson_pmf(mu, np.arange(lo, hi))

        def tail_beyond(n: int) -> float:
            # P(T_{n+1} <= t) for a sum of n+1 exponential waits
            return float(gammainc(n + 1.0, mu))

    else:
        # local import: laplace imports this module at module level
        from .laplace import LaplaceSymbol, invert

        order, x = law.order, t**law.order

        def entries(lo: int, hi: int) -> np.ndarray:
            # the contour nodes broadcast over the block; entries far out
            # may overflow there, and the mass gate catches any kept
            n = np.arange(lo, hi)[:, None]
            sym = LaplaceSymbol(lambda s: law.survival_lt(s) * law.density_lt(s) ** n)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.maximum(invert(sym, t, method="talbot"), 0.0)

        def tail_beyond(n: int) -> float:
            sym = LaplaceSymbol(lambda s: law.density_lt(s) ** (n + 1) / s)
            return min(max(invert(sym, t, method="talbot"), 0.0), 1.0)

    # first block mean + 8 sd + 16 of the count (Laskin 2003), doubling
    # after; min() puts the cap first, so a NaN or inf size falls to it
    mean = x / math.gamma(1.0 + order)
    var = 2.0 * x * x / math.gamma(1.0 + 2.0 * order) - mean * mean + mean
    size = _PMF_BLOCK
    if n_max is None:
        size = int(min(_PMF_BLOCK, mean + 8.0 * math.sqrt(max(var, 0.0)) + 16.0))
    stop = (_PMF_HARD_CAP if n_max is None else n_max) + 1
    blocks, acc, lo = [], 0.0, 0
    while lo < stop:
        block = entries(lo, min(lo + size, stop))
        blocks.append(block)
        if n_max is None:
            # the sequential running sum, carried from block to block
            running = np.cumsum(np.concatenate(([acc], block)))[1:]
            hit = np.flatnonzero(running >= mass_target)
            if hit.size:
                blocks[-1] = block[: hit[0] + 1]
                break
            acc = running[-1]
        lo += block.size
        size = min(2 * size, _PMF_BLOCK)
    table = np.concatenate(blocks)
    tail = tail_beyond(len(table) - 1)
    # also catches a table whose entries alone sum past 1 + budget
    gap = abs(1.0 - math.fsum(table) - tail)
    if not gap <= 1.0 - mass_target:  # a NaN gap fails too
        raise AccuracyError(
            f"count table at t={t} and its tail miss unit mass by {gap:.3e}, "
            f"above the budget {1.0 - mass_target:.3e}",
            value=table,
            est_error=gap,
        )
    return CountingPmfTable(law=law, t=t, probabilities=table, tail_bound=tail)
