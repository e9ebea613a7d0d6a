"""Monte Carlo harness for event-stream statistics and jump chains.

Paths run in fixed blocks of ``_BLOCK``.  Block b draws from one Philox
stream keyed by avalanche-hashing b, xoring in the master seed and
hashing again, so the draws depend only on the master seed and the
block index.  Returned samples are sorted.

Within a block all live clocks advance in lock-step rounds of one wait
per path; a path leaves once its clock passes the horizon (an event
exactly at t is counted, as in the renewal module).  Each round then
draws one jump per path whose event fell inside [0, t] and folds it into
that path's sum or max; an empty stream yields zero.  Chains redraw the
state of every surviving path each round and add its holding interval
to a difference array over the grid; a path in an absorbing state draws
nothing more, which matters for heavy-tailed waits whose next epoch can
be astronomically far away.  Memory holds a few arrays of one block,
whatever the horizon.

The comparison side is an empirical cdf and the two-sided
Kolmogorov-Smirnov distance against an analytic cdf, with the usual
1.63 / sqrt(n) threshold (about the 99% point of the KS law) as the
default acceptance line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .renewal import _check_waiting_law, sample_waiting_time
from .stats import StatisticKind, TransitionMatrix, _check_jump_law

__all__ = [
    "SimulationPlan",
    "simulate_statistic",
    "simulate_chain",
    "Ecdf",
    "build_ecdf",
    "KsReport",
    "ks_distance",
]

_MASK64 = (1 << 64) - 1
_BLOCK = 4096  # paths per counter-based stream


def _avalanche(x: int) -> int:
    """64-bit finalizer with full avalanche (splitmix64 mixing stage)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _block_streams(master_seed: int, n_paths: int):
    """Yield (generator, size) for each block of paths, in path order."""
    for block, first in enumerate(range(0, n_paths, _BLOCK)):
        key = _avalanche(master_seed ^ _avalanche(block))
        size = min(_BLOCK, n_paths - first)
        yield np.random.Generator(np.random.Philox(key=key)), size


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"master_seed must be an integer, got {seed!r}")
    if not (0 <= int(seed) < 1 << 64):
        raise DomainError("master_seed must fit in 64 unsigned bits")
    return int(seed)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one statistic simulation depends on."""

    kind: StatisticKind
    jump_law: object
    ie_law: object
    t: float
    n_paths: int = 100_000
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, StatisticKind):
            raise DomainError(f"kind must be a StatisticKind, got {self.kind!r}")
        _check_jump_law(self.jump_law)
        _check_waiting_law(self.ie_law)
        if not (0.0 <= self.t < math.inf):
            raise DomainError(f"t must be non-negative and finite, got {self.t}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be at least 1, got {self.n_paths}")
        _check_seed(self.master_seed)


def simulate_statistic(plan: SimulationPlan) -> np.ndarray:
    """Simulate the planned statistic; returns the sorted sample values."""
    samples = np.zeros(plan.n_paths)
    if plan.t == 0.0:
        return samples
    first = 0
    for rng, size in _block_streams(_check_seed(plan.master_seed), plan.n_paths):
        block = samples[first : first + size]  # a view: the block's statistics
        clock = np.zeros(size)
        live = np.arange(size)
        while live.size:  # one round: one wait per path still inside [0, t]
            clock[live] += sample_waiting_time(plan.ie_law, rng, live.size)
            live = live[clock[live] <= plan.t]
            jumps = plan.jump_law.sample(rng, live.size)
            if plan.kind is StatisticKind.SUM:
                block[live] += jumps
            else:
                block[live] = np.maximum(block[live], jumps)
        first += size
    samples.sort()
    return samples


def simulate_chain(
    q: TransitionMatrix,
    start: int,
    ie_law,
    t_grid,
    n_paths: int,
    master_seed: int,
) -> np.ndarray:
    """Occupancy fractions of a jump chain on a time grid.

    At every event the state is redrawn from the transition row of the
    current state; between events it holds.  The returned array has one
    row per state and one column per grid time, each column summing to
    one.  An event falling exactly on a grid time is applied before the
    state is read there.
    """
    if not isinstance(q, TransitionMatrix):
        raise DomainError(f"q must be a TransitionMatrix, got {q!r}")
    if not (0 <= start < q.n_states):
        raise DomainError(f"start state {start} out of range")
    _check_waiting_law(ie_law)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("t_grid must be a non-empty 1-d sequence")
    if np.any(grid < 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("grid times must be non-negative and finite")
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("grid times must be non-decreasing")
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    seed = _check_seed(master_seed)

    cum_rows = q.cumulative()
    absorbing = np.diag(q.matrix) == 1.0
    width = grid.size + 1
    # flat (state, grid index) differences: +1 where a holding interval
    # starts, -1 one past its end; the extra column takes ends past the grid
    diff = np.zeros(q.n_states * width, dtype=np.int64)
    for rng, size in _block_streams(seed, n_paths):
        state = np.full(size, start, dtype=np.intp)
        pos = np.zeros(size, dtype=np.intp)  # first grid index not yet filled
        clock = np.zeros(size)
        while state.size:
            held = absorbing[state]  # absorbed: hold to the end, draw no more
            np.add.at(diff, state[held] * width + pos[held], 1)
            state, pos, clock = state[~held], pos[~held], clock[~held]
            clock += sample_waiting_time(ie_law, rng, state.size)
            end = np.searchsorted(grid, clock, side="left")
            np.add.at(diff, state * width + pos, 1)
            np.add.at(diff, state * width + end, -1)
            go = end < grid.size
            state, pos, clock = state[go], end[go], clock[go]
            u = rng.random(state.size)
            redrawn = np.zeros_like(state)
            for column in cum_rows[:, :-1].T:  # inverse cdf on each path's row
                redrawn += column[state] <= u
            state = redrawn
    return np.cumsum(diff.reshape(q.n_states, width)[:, :-1], axis=1) / n_paths


@dataclass(frozen=True)
class Ecdf:
    """Empirical cdf: a right-continuous step function on the samples."""

    sorted_samples: np.ndarray

    @property
    def n(self) -> int:
        return self.sorted_samples.size

    def __call__(self, u):
        idx = np.searchsorted(self.sorted_samples, np.asarray(u), side="right")
        out = idx / self.n
        return float(out) if out.ndim == 0 else out


def build_ecdf(samples) -> Ecdf:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("samples must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("samples must be finite")
    return Ecdf(np.sort(arr))


@dataclass(frozen=True)
class KsReport:
    """Two-sided KS distance with its acceptance threshold."""

    statistic_d: float
    n: int
    threshold: float
    passed: bool


def ks_distance(ecdf: Ecdf, cdf, threshold: float | None = None) -> KsReport:
    """Largest gap between the empirical cdf and an analytic one.

    ``cdf`` must accept an array of sample points and return their
    probabilities.  At each distinct value the step function is
    compared from above (rank of the last tied sample) and from below
    (rank before the first tied sample); the below comparison is
    skipped where samples tie, because ties mark an atom of the law
    and the left limit of a black-box cdf is not observable there.
    With an atom-free law this reduces to the classical two-sided
    formula over order statistics.

    The default threshold 1.63 / sqrt(n) sits near the 99% point of
    the KS law, so a correct model fails about once in a hundred runs.
    """
    if not isinstance(ecdf, Ecdf):
        raise DomainError(f"ecdf must be an Ecdf, got {ecdf!r}")
    n = ecdf.n
    distinct, first = np.unique(ecdf.sorted_samples, return_index=True)
    values = np.asarray(cdf(distinct), dtype=float)
    if values.shape != distinct.shape:
        raise DomainError("cdf must return one probability per sample point")
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise DomainError("cdf values must lie in [0, 1]")
    if threshold is None:
        threshold = 1.63 / math.sqrt(n)
    elif not (0.0 < threshold):
        raise DomainError(f"threshold must be positive, got {threshold}")
    last = np.append(first[1:], n)  # one past the final tied rank
    d = float(np.max(np.abs(last / n - values)))
    untied = (last - first) == 1
    if np.any(untied):
        below = np.abs(first[untied] / n - values[untied])
        d = max(d, float(np.max(below)))
    return KsReport(statistic_d=d, n=n, threshold=threshold, passed=d < threshold)
