"""Laplace-domain symbols of inter-event laws and numerical inversion.

Everything downstream of the renewal structure lives naturally in the
transform domain: with ``d(s)`` the transform of the waiting-time
density, the waiting-time survival transforms to ``(1 - d(s))/s``, the
count probabilities to ``(1 - d(s))/s * d(s)^n``, and the memory kernel
``m`` of the associated evolution equation satisfies

    m(s) = (1 - d(s)) / (s * d(s))

so that exponential waits give a constant (memoryless) kernel and
heavy-tailed Mittag-Leffler waits give ``m(s) = s^(order-1)``.

Two inverters sit behind the one entry point :func:`invert`.
Gaver-Stehfest works on the real axis only, with rational weights
generated exactly and a built-in cross-check at a lower order; it is
the default.  The fixed Talbot contour (``method="talbot"``) is the
integrator that also evaluates the Mittag-Leffler function
(:func:`ctstat.special._talbot`); it inverts all requested times in one
vectorized call and handles transforms whose Gaver-Stehfest error is
structural, at the price of needing the symbol at complex points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, InversionError
from .renewal import _check_waiting_law
from .special import _talbot

__all__ = [
    "LaplaceSymbol",
    "density_symbol",
    "survival_symbol",
    "memory_kernel_symbol",
    "marginal_symbol",
    "counting_symbol",
    "stehfest_weights",
    "invert",
]


@dataclass(frozen=True)
class LaplaceSymbol:
    """A Laplace transform ``s -> F(s)``, valid for Re(s) > 0.

    ``fn`` must accept positive real arguments; symbols meant for the
    Talbot inverter must accept complex numpy arrays as well (one call
    evaluates every contour node at every requested time).
    """

    fn: Callable
    label: str = ""

    def __call__(self, s):
        return self.fn(s)


def density_symbol(law) -> LaplaceSymbol:
    """Transform of the waiting-time density."""
    _check_waiting_law(law)
    return LaplaceSymbol(law.density_lt, f"{law!r} density")


def survival_symbol(law) -> LaplaceSymbol:
    """Transform of the waiting-time survival function, (1 - d(s))/s."""
    _check_waiting_law(law)
    return LaplaceSymbol(law.survival_lt, f"{law!r} survival")


def memory_kernel_symbol(law) -> LaplaceSymbol:
    """Transform of the memory kernel, (1 - d(s))/(s d(s)).

    Evaluated as survival over density transform.  Exponential waits
    give the constant 1/rate; Mittag-Leffler waits of order a give
    s^(a-1), the hallmark of a power-law memory.
    """
    _check_waiting_law(law)
    return LaplaceSymbol(
        lambda s: law.survival_lt(s) / law.density_lt(s), f"{law!r} kernel"
    )


def marginal_symbol(law, v: float) -> LaplaceSymbol:
    """Transform of the probability that a two-point mixture chain shows
    its initial face at time t.

    At each renewal the state is redrawn: with probability ``v`` the
    initial face again, with ``1 - v`` the other one.  Summing over the
    number of renewals gives the geometric resummation

        (1 - d(s)) / s * 1 / (1 - v d(s))

    ``v = 1`` reduces to 1/s (never leaves), ``v = 0`` to the
    waiting-time survival transform (gone after the first event).
    """
    _check_waiting_law(law)
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"mixture weight must lie in [0, 1], got {v}")
    return LaplaceSymbol(
        lambda s: law.survival_lt(s) / (1.0 - v * law.density_lt(s)),
        f"marginal v={v} of {law!r}",
    )


def counting_symbol(law, n: int) -> LaplaceSymbol:
    """Transform of P(exactly n events by time t): (1 - d(s))/s * d(s)^n."""
    _check_waiting_law(law)
    if n < 0:
        raise DomainError(f"count must be non-negative, got {n}")
    return LaplaceSymbol(
        lambda s: law.survival_lt(s) * law.density_lt(s) ** n,
        f"count n={n} of {law!r}",
    )


@lru_cache(maxsize=8)
def stehfest_weights(order: int) -> tuple[float, ...]:
    """Salzer summation weights for the Gaver functional, exact rationals.

    ``order`` must be even.  The k-th weight (1-based) is

        (-1)^(k + order/2) * sum_{j} j^(order/2) (2j)! /
            ((order/2 - j)! j! (j-1)! (k-j)! (2j-k)!)

    with j running over max(1, ceil(k/2)) .. min(k, order/2).
    """
    if order < 2 or order % 2:
        raise DomainError(f"Gaver-Stehfest order must be even and >= 2, got {order}")
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j) ** half * Fraction(math.factorial(2 * j))
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num / den
        if (k + half) % 2:
            acc = -acc
        weights.append(float(acc))
    return tuple(weights)


# Gaver-Stehfest order and the lower order it is checked against; 14
# keeps the weight magnitudes near 1e8 so roughly 8 digits survive in
# double precision
_STEHFEST_ORDER = 14
_STEHFEST_CHECK_ORDER = 12
# accepted disagreement between the two orders: relative, and an
# absolute floor below which it never raises.  On smooth
# probability-scale originals the measured gap stays below ~5e-4 while
# structural failures (oscillatory or discontinuous originals) push it
# past 1e-2, so these values split the two regimes
_STEHFEST_REL_TOL = 5e-3
_STEHFEST_ABS_FLOOR = 1e-3


def _stehfest_at(symbol, t: float, order: int) -> float:
    w = stehfest_weights(order)
    ln2_t = math.log(2.0) / t
    acc = 0.0
    for k in range(1, order + 1):
        acc += w[k - 1] * symbol(k * ln2_t)
    return acc * ln2_t


def invert(symbol, t, method: str = "stehfest"):
    """Evaluate the original function of ``symbol`` at time(s) ``t``.

    Scalar ``t`` returns a float, an array returns an array.  Times must
    be strictly positive.  ``method`` is "stehfest" (real axis, default)
    or "talbot" (fixed contour, all times in one call).  A Talbot symbol
    that broadcasts the nodes (shape ``t.shape + (m,)``) to a larger
    leading shape, say a block of counts, returns that shape, an array
    even for scalar ``t``.

    Raises
    ------
    InversionError
        when the two Gaver-Stehfest orders disagree beyond the accepted
        gap, which flags a transform outside the method's comfort zone
        (oscillatory or non-smooth originals).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(~np.isfinite(t_arr)):
        raise DomainError("inversion times must be positive and finite")
    if method == "talbot":
        out = _talbot(symbol, t_arr)
        return float(out) if np.ndim(out) == 0 else out
    if method != "stehfest":
        raise DomainError(f"unknown inversion method {method!r}")

    out = np.empty(t_arr.size)
    for i, ti in enumerate(np.atleast_1d(t_arr)):
        v = _stehfest_at(symbol, float(ti), _STEHFEST_ORDER)
        gap = abs(v - _stehfest_at(symbol, float(ti), _STEHFEST_CHECK_ORDER))
        if gap > max(_STEHFEST_REL_TOL * abs(v), _STEHFEST_ABS_FLOOR):
            label = getattr(symbol, "label", "") or repr(symbol)
            raise InversionError(
                f"Gaver-Stehfest orders {_STEHFEST_ORDER}/{_STEHFEST_CHECK_ORDER} "
                f"disagree by {gap:.3e} at t={ti} for {label}"
            )
        out[i] = v
    if t_arr.ndim == 0:
        return float(out[0])
    return out.reshape(t_arr.shape)
