"""One-parameter Mittag-Leffler function on the real axis.

``E_a(z) = sum_{n>=0} z^n / Gamma(a*n + 1)`` for order ``0 < a <= 1``.

For ``z <= 0`` the function is completely monotone in ``-z``, takes
values in ``(0, 1]``, and interpolates between a stretched exponential
at short times and a power-law tail at long times; ``E_1(z) = exp(z)``.
``E_a(-t^a)`` is the survival function of the heavy-tailed waiting-time
law used by the renewal and relaxation modules.

Evaluation strategy
-------------------
Every route works on blocks of points; :func:`ml_one_param` is one
point of :func:`ml_values`.

* ``a == 1`` is ``exp`` (exact at the classical boundary); E_a(0) = 1.
* One Taylor series serves every ``z > 0`` and the band
  ``-9^a <= z < 0``, where its largest term ``exp(|z|^(1/a))`` stays
  below ``e^9``.  Its terms come by a ratio recurrence, so no power of
  ``z`` leaves double range before the value does, and every point
  carries an estimate of its rounding and truncation.
* Band points whose estimate exceeds 1e-11, and every ``z < -9^a``,
  take the Laplace pair E_a(-x t^a) <-> s^(a-1) / (s^a + x), inverted
  at t = 1 on the fixed Talbot contour (Abate & Valko 2004, IJNME
  60:979): the 24-node value, with its gap to 16 nodes as the estimate.
  This t-free form never forms ``x^(1/a)``, so it stays finite out to
  the end of the double range, where E_a(-x) ~ 1 / (x Gamma(1 - a)).

A point past its guarantee (1e-10 absolute for z <= 0, max(1e-11,
1e-13 |E_a(z)|) for z > 0) raises AccuracyError with the best values
and their estimates.  :func:`_talbot` is the one contour integrator of
the package; the Talbot method of :func:`ctstat.laplace.invert` and the
chain rows of :func:`ctstat.stats.semi_markov_marginal` call it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError

_EPS = np.finfo(float).eps
_LOG_MAX = math.log(np.finfo(float).max)
# internal absolute-error target, below the documented 1e-10 guarantee
_TARGET = 1e-11
_GUARANTEE = 1e-10
# past x^(1/a) = 9 the double-precision series loses too many digits to
# cancellation (max term ~ exp(x^(1/a)))
_SERIES_PEAK_LIMIT = 9.0
_SERIES_MAX_TERMS = 10_000
# terms summed apart before they join the running sum, which keeps the
# running sum's rounding in reach of the relative target for z > 0
_SERIES_GROUP = 8
# points per pass of the series and of the contour; the contour's work
# arrays hold 24 complex nodes per point, about 3 MB a block
_BLOCK = 8192
# contour nodes; beyond 24 the exp(r*t) factor amplifies rounding faster
# than the quadrature gains, and 16 nodes give the error estimate
_TALBOT_NODES = 24
_TALBOT_CHECK_NODES = 16


@dataclass(frozen=True)
class MlEvaluation:
    """Result of a Mittag-Leffler evaluation.

    value      : E_a(z)
    terms_used : series terms summed, or contour nodes
    regime     : "series" (Taylor) or "contour" (Talbot inversion)
    est_error  : estimated absolute error of ``value``
    """

    value: float
    terms_used: int
    regime: str
    est_error: float


def _check_order(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0) or math.isnan(alpha):
        raise DomainError(f"order must lie in (0, 1], got {alpha}")


@lru_cache(maxsize=4)
def _talbot_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Contour shape ``s / r`` and quadrature weights for ``m`` nodes.

    The contour is s(theta) = r*theta*(cot(theta) + i); with r = 2m/(5t)
    the factor exp(s*t) depends on theta only, so it is folded into the
    weights.  The real node theta = 0 carries half weight.
    """
    theta = np.arange(1, m) * (math.pi / m)
    cot = 1.0 / np.tan(theta)
    shape = np.concatenate(([1.0], theta * (cot + 1j)))
    sigma = theta + (theta * cot - 1.0) * cot
    weights = np.concatenate(([0.5], 1.0 + 1j * sigma)) * np.exp(0.4 * m * shape)
    return shape, weights


def _talbot(fn, t, m: int = _TALBOT_NODES):
    """Inverse Laplace transform of ``fn`` at times ``t`` > 0.

    ``fn`` is called once, on the complex nodes of shape
    ``t.shape + (m,)``; it may broadcast them to a larger leading shape.
    The nodes are summed over the last axis.
    """
    shape, weights = _talbot_weights(m)
    r = 0.4 * m / np.asarray(t, dtype=float)
    return (fn(r[..., None] * shape) @ weights).real * (r / m)


def _contour(alpha: float, x: np.ndarray):
    """E_a(-x) as the inverse of s^(a-1)/(s^a + x) at t = 1, _BLOCK
    points per call, with the gap to 16 nodes (at least the 1e-11
    target) as the estimate."""
    values, ests = np.empty_like(x), np.empty_like(x)
    for lo in range(0, x.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)

        def symbol(s, xb=x[part, None]):
            return s ** (alpha - 1.0) / (s**alpha + xb)

        values[part] = _talbot(symbol, 1.0)
        gap = np.abs(values[part] - _talbot(symbol, 1.0, _TALBOT_CHECK_NODES))
        ests[part] = np.maximum(gap, _TARGET)
    return values, ests


def _series(alpha: float, z: np.ndarray):
    """Taylor sums of E_a at nonzero points z, _BLOCK points at a time.

    Returns (values, est_error, terms).  The terms t_n come by the ratio
    t_n / t_(n-1) = z Gamma(a(n-1)+1) / Gamma(an+1), one scalar lgamma
    per n, and join the running sum S in groups of _SERIES_GROUP.  The
    estimate eps (4 sum|t_n| + 2 sum n|t_n|) + |t_N| covers the rounding
    of the terms (the weighted sum for the rounding the recurrence
    carries along) and the truncation; eps/2 ((_SERIES_GROUP - 1)
    sum|t_n| + sum_g |S_g|) bounds the rounding of the group sums and of
    S.  A block stops past its largest term (near n = |z|^(1/a) / a)
    once every term is below 1e-18 max(|S|, 1); a point still above that
    at the term cap gets an infinite estimate.
    """
    values, ests = np.empty_like(z), np.empty_like(z)
    terms = np.empty(z.shape, dtype=int)
    for lo in range(0, z.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        zb = z[part]
        term, total, abs_sum = np.ones_like(zb), np.ones_like(zb), np.ones_like(zb)
        group, mag, work = np.empty_like(zb), np.empty_like(zb), np.empty_like(zb)
        abs_acc, run_acc = np.zeros_like(zb), np.zeros_like(zb)
        peak = float(np.abs(zb).max()) ** (1.0 / alpha) / alpha
        lg_prev, n = 0.0, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while n < _SERIES_MAX_TERMS:
                group.fill(0.0)
                for _ in range(_SERIES_GROUP):
                    n += 1
                    lg = math.lgamma(alpha * n + 1.0)
                    term *= zb
                    term *= math.exp(lg_prev - lg)
                    lg_prev = lg
                    group += term
                    abs_acc += abs_sum
                    np.abs(term, out=mag)
                    abs_sum += mag
                total += group
                np.abs(total, out=work)
                run_acc += work
                if n > peak and np.all(mag <= 1e-18 * np.maximum(work, 1.0)):
                    break
            # by parts, sum n|t_n| = n * abs_sum - abs_acc
            est = _EPS * (4.0 * abs_sum + 2.0 * (n * abs_sum - abs_acc)) + mag
            est += 0.5 * _EPS * ((_SERIES_GROUP - 1) * abs_sum + run_acc)
        est[~(mag <= 1e-18 * np.maximum(work, 1.0)) | (work == np.inf)] = np.inf
        values[part], ests[part], terms[part] = total, est, n + 1
    return values, ests, terms


def _evaluate(alpha: float, z: np.ndarray):
    """Values, estimates, terms (or contour nodes) and contour flags of
    E_a at the points of the 1-d array z, by the routes of the module
    docstring."""
    value, est = np.ones_like(z), np.zeros_like(z)
    terms = np.ones(z.shape, dtype=int)
    contour = np.zeros(z.shape, dtype=bool)
    if alpha == 1.0:
        np.exp(z, out=value)
        est = 2.0 * _EPS * value
    else:
        lost = z > _LOG_MAX**alpha  # past exp(z^(1/a)) the value leaves double range
        value[lost] = est[lost] = np.inf
        series = (z != 0.0) & (z >= -(_SERIES_PEAK_LIMIT**alpha)) & ~lost
        value[series], est[series], terms[series] = _series(alpha, z[series])
        contour = (z < 0.0) & ~(series & (est <= _TARGET))
        value[contour], est[contour] = _contour(alpha, -z[contour])
        terms[contour] = _TALBOT_NODES
    return value, est, terms, contour


def _miss(alpha: float, z, value, est, contour) -> str:
    """Why the first point past its guarantee misses it, or ''."""
    limit = np.where(z > 0.0, np.maximum(_TARGET, 1e-13 * np.abs(value)), _GUARANTEE)
    miss = ~(np.isfinite(value) & (est <= limit))
    if not miss.any():
        return ""
    i = int(np.argmax(miss))
    route = "contour" if contour[i] else "series"
    return f"{route} for E_{alpha}({z[i]}) reached est_error={est[i]:.2e}"


def ml_one_param(alpha: float, z: float) -> MlEvaluation:
    """E_a(z) at one real point with its route and estimate: one point
    of :func:`ml_values`.

    The order ``alpha`` lies in (0, 1].  For z <= 0 the estimated
    absolute error is at most 1e-10; for z > 0 it is at most
    max(1e-11, 1e-13 * E_a(z)).  Raises DomainError for an order outside
    (0, 1] or a NaN or +inf argument, and AccuracyError, carrying the
    best value and its estimate, when the guarantee cannot be met (a
    finite z whose value leaves double range is one such point).
    """
    _check_order(alpha)
    if math.isnan(z) or z == math.inf:
        raise DomainError(f"argument must not be NaN or +inf, got {z}")
    z_arr = np.array([float(z)])
    value, est, terms, contour = _evaluate(alpha, z_arr)
    message = _miss(alpha, z_arr, value, est, contour)
    if message:
        raise AccuracyError(message, value=float(value[0]), est_error=float(est[0]))
    regime = "contour" if contour[0] else "series"
    return MlEvaluation(float(value[0]), int(terms[0]), regime, float(est[0]))


def ml_survival(alpha: float, t):
    """Survival function E_a(-t^a) of the Mittag-Leffler waiting-time law.

    ``t`` may be a scalar or an array; the return type matches.  Equals 1
    at t = 0, decreases strictly, and tends to 0 as t grows.
    """
    _check_order(alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(np.isnan(t_arr)):
        raise DomainError("time must be non-negative")
    values = ml_values(alpha, -(t_arr**alpha))
    return float(values[0]) if t_arr.ndim == 0 else values


def ml_values(alpha: float, z) -> np.ndarray:
    """Vectorized E_a over an array of real arguments (values only).

    Every point takes the route and meets the guarantee of
    :func:`ml_one_param`.  Raises DomainError for NaN or +inf arguments
    and AccuracyError, carrying every value and estimate, when a point
    misses its guarantee.
    """
    _check_order(alpha)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(np.isnan(z_arr) | (z_arr == math.inf)):
        raise DomainError("argument must not be NaN or +inf")
    flat = z_arr.ravel()
    value, est, _, contour = _evaluate(alpha, flat)
    message = _miss(alpha, flat, value, est, contour)
    if message:
        raise AccuracyError(
            message, value=value.reshape(z_arr.shape), est_error=est.reshape(z_arr.shape)
        )
    return value.reshape(z_arr.shape)
