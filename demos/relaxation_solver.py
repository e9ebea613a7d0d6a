"""Decay under a memory kernel, solved step by step.

The kernel is the renewal density of a waiting law.  Exponential waits
give a memoryless kernel and plain exponential decay; Mittag-Leffler
waits give a power-law kernel that drags the whole history along, and
the decay follows the Mittag-Leffler survival instead.  The script
solves both, compares against the closed forms, and shows how the
solver's self-reported error bound tracks the true error as the step
shrinks.
"""

import numpy as np

from ctstat import (
    Exponential,
    MittagLeffler,
    RelaxationProblem,
    ml_survival,
    solve_relaxation,
)

order = 0.6
for t in (0.5, 1.0, 2.0):
    delta = solve_relaxation(
        RelaxationProblem(Exponential(1.0), rate=1.0, t_max=2.0, step=0.01)
    )
    power = solve_relaxation(
        RelaxationProblem(MittagLeffler(order), rate=1.0, t_max=2.0, step=0.002)
    )
    print(
        f"t = {t:4.1f}: delta {delta.at(t):.6f} (exp {np.exp(-t):.6f})   "
        f"power {power.at(t):.6f} (ml {ml_survival(order, t):.6f})"
    )

print()
print("step refinement, power-law kernel on [0, 2]:")
print(f"{'h':>10} {'true error':>12} {'reported':>12}")
for step in (0.02, 0.01, 0.005, 0.0025):
    solution = solve_relaxation(
        RelaxationProblem(MittagLeffler(order), rate=1.0, t_max=2.0, step=step)
    )
    truth = ml_survival(order, solution.times)
    err = float(np.max(np.abs(solution.values - truth)))
    print(f"{step:>10.4f} {err:12.2e} {solution.est_error:12.2e}")
