"""A two-state chain stepped at stream events, analytic vs simulated.

The marginal occupancy mixes matrix powers over the event count.  With
heavy-tailed waits the chain is no longer Markov in continuous time:
the script shows the absorbing case collapsing onto the waiting-time
survival, then a symmetric switcher relaxing toward the uniform law,
with 50k simulated trajectories alongside.
"""

import numpy as np

from ctstat import (
    MittagLeffler,
    TransitionMatrix,
    semi_markov_marginal,
    simulate_chain,
)

law = MittagLeffler(0.7)
grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
n_paths = 50_000

print("absorbing chain (leave the start state at the first event):")
q = TransitionMatrix([[0.0, 1.0], [0.0, 1.0]])
occupancy = simulate_chain(q, 0, law, grid, n_paths, 17)
print(f"{'t':>6} {'analytic':>10} {'simulated':>10}")
for k, t in enumerate(grid):
    p = semi_markov_marginal(q, 0, law, float(t), tol=1e-10)[0]
    print(f"{t:>6.2f} {p:10.6f} {occupancy[0, k]:10.6f}")

print()
print("symmetric switcher (coin flip at every event):")
q = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
occupancy = simulate_chain(q, 0, law, grid, n_paths, 18)
print(f"{'t':>6} {'analytic':>10} {'simulated':>10}")
for k, t in enumerate(grid):
    p = semi_markov_marginal(q, 0, law, float(t), tol=1e-10)[0]
    print(f"{t:>6.2f} {p:10.6f} {occupancy[0, k]:10.6f}")
