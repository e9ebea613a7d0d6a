"""Round trips through the Laplace domain.

Builds the named transform symbols of a waiting law, inverts them
numerically with both methods, and prints the recovered values against
closed forms.  The count symbols double as an independent route to the
pmf tables of the renewal module.
"""

import math

import numpy as np

from ctstat import (
    Exponential,
    MittagLeffler,
    counting_pmf,
    counting_symbol,
    density_symbol,
    invert,
    ml_survival,
    survival_symbol,
)

print("exponential law, density e^{-t} recovered at t = 1:")
sym = density_symbol(Exponential(1.0))
for method in ("stehfest", "talbot"):
    got = invert(sym, 1.0, method=method)
    print(f"  {method:9}: {got:.12f}  (gap {abs(got - math.exp(-1.0)):.2e})")

print()
print("heavy-tail survival at several times, talbot contour:")
law = MittagLeffler(0.7)
sym = survival_symbol(law)
times = np.array([0.5, 2.0, 10.0])
for t, got, ref in zip(times, invert(sym, times, method="talbot"), ml_survival(0.7, times)):
    print(f"  t = {t:5.1f}: {got:.10f} vs {ref:.10f}")

print()
print("count probabilities by symbol inversion vs the pmf table (t = 1):")
table = counting_pmf(law, 1.0, n_max=4)
for n in range(5):
    got = invert(counting_symbol(law, n), 1.0, method="talbot")
    print(f"  n = {n}: {got:.10f} vs {table.probabilities[n]:.10f}")
