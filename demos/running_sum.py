"""The running sum of jumps collected by a constant-rate stream.

Evaluates the analytic mixture-over-counts cdf for unit exponential
jumps, then replays the same law by brute-force simulation and prints
both next to each other.  The last block repeats the comparison with
Pareto jumps, where no closed convolution exists and the analytic
column comes from the count generating function on a jump lattice.
"""

import numpy as np

from ctstat import (
    Exponential,
    ExponentialJumps,
    ParetoJumps,
    SimulationPlan,
    StatisticKind,
    mixture_cdf,
    simulate_statistic,
    sum_cdf_series,
)

t = 2.0
levels = np.array([0.5, 1.0, 2.0, 4.0, 8.0])

jumps = ExponentialJumps(1.0)
analytic = sum_cdf_series(jumps, 1.0, t, levels, tol=1e-10)
plan = SimulationPlan(StatisticKind.SUM, jumps, Exponential(1.0), t, 200_000, 3)
samples = simulate_statistic(plan)

print(f"P(sum <= u) at t = {t}, exponential jumps")
print(f"{'u':>6} {'analytic':>12} {'simulated':>12}")
for u, val in zip(levels, analytic):
    emp = float(np.mean(samples <= u))
    print(f"{u:>6.1f} {val:12.6f} {emp:12.6f}")

pareto = ParetoJumps(1.0, 2.5)
analytic = mixture_cdf(StatisticKind.SUM, pareto, Exponential(1.0), t, levels, tol=1e-6)
plan = SimulationPlan(StatisticKind.SUM, pareto, Exponential(1.0), t, 200_000, 4)
samples = simulate_statistic(plan)

print()
print(f"same stream, Pareto(1, 2.5) jumps (lattice path)")
print(f"{'u':>6} {'analytic':>12} {'simulated':>12}")
for u, val in zip(levels, analytic):
    emp = float(np.mean(samples <= u))
    print(f"{u:>6.1f} {val:12.6f} {emp:12.6f}")
