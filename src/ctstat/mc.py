"""Monte Carlo harness for event-stream statistics and jump chains.

Each path owns a counter-based random stream: the path index is pushed
through a 64-bit avalanche hash, xored into the master seed, hashed
again, and the result keys a Philox generator.  Draws on one path
depend only on the master seed and the path index, so a simulation is
reproducible from the master seed alone.  Returned samples are sorted.

A path is simulated literally: waiting times are drawn until the epoch
passes t (an event landing exactly at t is counted, matching the
counting convention of the renewal module), the counted number of
jumps is drawn, and the statistic is applied; an empty stream yields
statistic zero.  Chains redraw the state at every event from a
row-stochastic matrix; once an absorbing state is entered the remaining
grid times are filled without drawing further waits, which matters for
heavy-tailed waits whose next epoch can be astronomically far away.

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


def _avalanche(x: int) -> int:
    """64-bit finalizer with full avalanche (splitmix64 mixing stage)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    key = _avalanche(master_seed ^ _avalanche(path_index))
    return np.random.Generator(np.random.Philox(key=key))


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


def _count_events(law, rng: np.random.Generator, t: float) -> int:
    """Events up to and including t on one path, drawing waits in batches."""
    count = 0
    elapsed = 0.0
    batch = 8
    while True:
        waits = sample_waiting_time(law, rng, batch)
        epochs = elapsed + np.cumsum(waits)
        hits = int(np.searchsorted(epochs, t, side="right"))
        count += hits
        if hits < batch:
            return count
        elapsed = float(epochs[-1])
        batch = min(2 * batch, 1024)


def _statistic_path(plan: SimulationPlan, index: int) -> float:
    rng = _path_rng(plan.master_seed, index)
    n = _count_events(plan.ie_law, rng, plan.t) if plan.t > 0.0 else 0
    if n == 0:
        return 0.0
    draws = plan.jump_law.sample(rng, n)
    if plan.kind is StatisticKind.SUM:
        return float(np.sum(draws))
    return float(np.max(draws))


def simulate_statistic(plan: SimulationPlan) -> np.ndarray:
    """Simulate the planned statistic; returns the sorted sample values."""
    samples = np.fromiter(
        (_statistic_path(plan, i) for i in range(plan.n_paths)), float, plan.n_paths
    )
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
    n_states = q.n_states

    def path_states(index: int) -> np.ndarray:
        rng = _path_rng(seed, index)
        states = np.empty(grid.size, dtype=np.intp)
        state = start
        pos = 0
        clock = 0.0
        while pos < grid.size:
            if q.matrix[state, state] == 1.0:
                states[pos:] = state  # absorbed, no more draws needed
                break
            clock += sample_waiting_time(ie_law, rng)
            while pos < grid.size and grid[pos] < clock:
                states[pos] = state
                pos += 1
            if pos >= grid.size:
                break
            u = rng.random()
            state = min(
                int(np.searchsorted(cum_rows[state], u, side="right")),
                n_states - 1,
            )
        return states

    counts = np.zeros((n_states, grid.size), dtype=np.int64)
    cols = np.arange(grid.size)
    for i in range(n_paths):
        counts[path_states(i), cols] += 1
    return counts / float(n_paths)


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
