"""One-parameter Mittag-Leffler function on the real axis.

``E_a(z) = sum_{n>=0} z^n / Gamma(a*n + 1)`` for order ``0 < a <= 1``.

For ``z <= 0`` the function is completely monotone in ``-z``, takes
values in ``(0, 1]``, and interpolates between a stretched exponential
at short times and a power-law tail at long times; ``E_1(z) = exp(z)``.
``E_a(-t^a)`` is the survival function of the heavy-tailed waiting-time
law used by the renewal and relaxation modules.

Evaluation strategy
-------------------
* ``a == 1`` is special-cased to ``exp`` (exact at the classical
  boundary).
* Taylor series in double precision where its largest term
  ``exp(x^(1/a))`` stays below ``e^9`` (``x <= 9^a``, with ``x = -z``)
  and its running cancellation estimate meets the accuracy target.
  For ``z > 0`` the series is the only route; each term is formed as
  ``exp(n log z - lgamma(a*n + 1))`` so no power leaves double range
  before the value does.
* Everywhere else on ``z <= 0``, the Laplace pair

      E_a(-x t^a)  <->  s^(a-1) / (s^a + x)

  inverted at ``t = 1`` on the fixed Talbot contour (Abate & Valko
  2004, IJNME 60:979).  The 24-node value is returned and its gap to
  the 16-node value is the error estimate.  This t-free form never
  forms ``x^(1/a)``, so it stays finite out to the end of the double
  range, where ``E_a(-x) ~ 1 / (x Gamma(1 - a))``.

:func:`_talbot` is the one contour integrator of the package; the
Talbot method of :func:`ctstat.laplace.invert` calls it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import rgamma  # reciprocal gamma; 0 at the poles

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
        raise DomainError(f"Mittag-Leffler order must lie in (0, 1], got {alpha}")


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


def _ml_contour(alpha: float, x, m: int = _TALBOT_NODES):
    """E_a(-x) as the inverse of s^(a-1)/(s^a + x) at t = 1."""
    x = np.asarray(x, dtype=float)[..., None]
    return _talbot(lambda s: s ** (alpha - 1.0) / (s**alpha + x), 1.0, m)


def _series_double(alpha: float, z: float) -> tuple[float, int, float]:
    """Plain Taylor series with exact summation of the computed terms.

    Returns (value, terms, est_error); est_error tracks both the
    truncation tail and the cancellation floor eps * sum|t_n|.  A term
    or running sum past double range returns infinite value and
    estimate; a sum still unsettled at the term cap, an infinite
    estimate.
    """
    log_x = math.log(abs(z))
    alternating = z < 0.0
    terms = [1.0]
    abs_sum = 1.0
    weighted_abs = 0.0  # sum n*|t_n|, drives the term rounding estimate
    prev_mag = 1.0
    n = 1
    tail = math.inf
    while n <= _SERIES_MAX_TERMS:
        log_mag = n * log_x - math.lgamma(alpha * n + 1.0)
        mag = math.exp(log_mag) if log_mag < _LOG_MAX else math.inf
        abs_sum += mag
        if abs_sum == math.inf:
            return math.inf, n, math.inf
        terms.append(-mag if alternating and n % 2 else mag)
        weighted_abs += n * mag
        partial_scale = max(abs(math.fsum(terms)), 1e-3) if mag < 1e-12 else 1.0
        if mag <= 1e-18 * partial_scale and mag <= prev_mag:
            tail = mag
            break
        prev_mag = mag
        n += 1
    value = math.fsum(terms)
    # the weighted term stands for the rounding of the exponent
    # n*log|z| - lgamma(a*n + 1), which grows with n
    est = _EPS * (4.0 * abs_sum + 2.0 * weighted_abs) + tail
    return value, n + 1, est


def ml_one_param(alpha: float, z: float) -> MlEvaluation:
    """Evaluate the one-parameter Mittag-Leffler function E_a(z).

    Parameters
    ----------
    alpha : order in (0, 1].
    z : real argument.  For z <= 0 the estimated absolute error is at
        most 1e-10; for z > 0 it is at most max(1e-11, 1e-13 * E_a(z)).

    Raises
    ------
    DomainError
        if alpha is outside (0, 1] or z is NaN.
    AccuracyError
        if the evaluation cannot meet its accuracy guarantee (carries the
        best-effort value and its estimated error).
    """
    _check_order(alpha)
    if math.isnan(z):
        raise DomainError("argument must not be NaN")
    if z == 0.0:
        return MlEvaluation(1.0, 1, "series", 0.0)
    if alpha == 1.0:
        return MlEvaluation(math.exp(z), 1, "series", 2.0 * _EPS * math.exp(z))

    if z > 0.0:
        # convergent but growing series; no contour alternative here
        value, terms, est = _series_double(alpha, z)
        if not math.isfinite(value + est) or est > max(_TARGET, 1e-13 * abs(value)):
            raise AccuracyError(
                f"series for E_{alpha}({z}) reached est_error={est:.2e}",
                value=value,
                est_error=est,
            )
        return MlEvaluation(value, terms, "series", est)

    x = -z
    if x <= _SERIES_PEAK_LIMIT**alpha:
        value, terms, est = _series_double(alpha, z)
        if est <= _TARGET:
            return MlEvaluation(value, terms, "series", est)

    value = float(_ml_contour(alpha, x))
    est = max(abs(value - _ml_contour(alpha, x, _TALBOT_CHECK_NODES)), _TARGET)
    if est > _GUARANTEE:
        raise AccuracyError(
            f"contour for E_{alpha}({z}) reached est_error={est:.2e}",
            value=value,
            est_error=est,
        )
    return MlEvaluation(value, _TALBOT_NODES, "contour", est)


def ml_survival(alpha: float, t):
    """Survival function E_a(-t^a) of the Mittag-Leffler waiting-time law.

    ``t`` may be a scalar or an array; the return type matches.  Equals 1
    at t = 0, decreases strictly, and tends to 0 as t grows.
    """
    _check_order(alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(np.isnan(t_arr)):
        raise DomainError("time must be non-negative")
    if t_arr.ndim == 0:
        return ml_one_param(alpha, -float(t_arr) ** alpha).value
    return ml_values(alpha, -(t_arr**alpha))


def ml_values(alpha: float, z) -> np.ndarray:
    """Vectorized E_a over an array of non-positive arguments (values only).

    Arguments in the series band (``-z <= 9^a``) are summed together in
    a vectorized Taylor loop; the rest go through the contour in one
    call.  Both stay within the 1e-10 absolute guarantee of
    :func:`ml_one_param`.
    """
    _check_order(alpha)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr > 0.0) or np.any(np.isnan(z_arr)):
        raise DomainError("ml_values expects non-positive arguments")
    out = np.empty_like(z_arr)
    if alpha == 1.0:
        np.exp(z_arr, out=out)
        return out

    easy = -z_arr <= _SERIES_PEAK_LIMIT**alpha
    if np.any(easy):
        series = _series_vec(alpha, z_arr[easy])
        if series is None:
            easy[:] = False
        else:
            out[easy] = series
    hard = ~easy
    if np.any(hard):
        out[hard] = _ml_contour(alpha, -z_arr[hard])
    return out


def _series_vec(alpha: float, z: np.ndarray) -> np.ndarray | None:
    """Taylor sums of E_a at points of the series band, or None when the
    terms have not settled below 1e-18 within the term cap (orders below
    about 0.005)."""
    total = np.ones_like(z)
    power = np.ones_like(z)
    # the terms grow up to n ~ x^(1/a)/a and shrink after it
    n_min = float(-z.min()) ** (1.0 / alpha) / alpha + 5
    for n in range(1, _SERIES_MAX_TERMS + 1):
        power = power * z
        t = power * rgamma(alpha * n + 1.0)
        total += t
        if n >= n_min and np.all(np.abs(t) <= 1e-18):
            return total
    return None
