"""One-parameter Mittag-Leffler function on the non-positive real axis.

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
* Taylor series in double precision while its running cancellation
  estimate stays below the accuracy target (small ``|z|``).
* Asymptotic expansion once its optimal-truncation estimate meets the
  target (large ``|z|``)::

      E_a(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(1 - a*k)

* In the band where neither double-precision route reaches the target
  the Taylor series is re-summed in extended precision (mpmath), with
  the working precision sized from the largest-term magnitude
  ``exp(x^(1/a))``.  This still reports ``regime="series"``.

The crossover argument ``x*(a)`` where the asymptotic route reaches
absolute error 1e-11 grows like ``log(1e11)^a ~ 25.3^a``; representative
values computed by :func:`asymptotic_crossover`:

    a     0.2   0.3   0.5   0.7   0.8   0.9   0.95
    x*    1.9   2.7   5.1   9.7   13.4  18.5  21.8

Below ``x*`` the series (escalating precision as needed) is used, above
it the asymptotic expansion, so the two regimes agree at the crossover
to within the target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.special import rgamma  # reciprocal gamma; 0 at the poles

from .errors import AccuracyError, DomainError

_EPS = np.finfo(float).eps
# internal absolute-error target, below the documented 1e-10 guarantee
_TARGET = 1e-11
# past this value of x^(1/a) the double-precision series loses too many
# digits to cancellation (max term ~ exp(x^(1/a)))
_SERIES_DOUBLE_LIMIT = 9.0
_SERIES_MAX_TERMS = 10_000
_ASYMP_MAX_TERMS = 400
_MP_MAX_TERMS = 50_000
_MP_MAX_DPS = 60


@dataclass(frozen=True)
class MlEvaluation:
    """Result of a Mittag-Leffler evaluation.

    value      : E_a(z)
    terms_used : number of series/expansion terms summed
    regime     : "series" (Taylor, possibly in extended precision) or
                 "asymptotic" (large-|z| expansion)
    est_error  : estimated absolute error of ``value``
    """

    value: float
    terms_used: int
    regime: str
    est_error: float


def _check_order(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0) or math.isnan(alpha):
        raise DomainError(f"Mittag-Leffler order must lie in (0, 1], got {alpha}")


def _series_double(alpha: float, z: float) -> tuple[float, int, float]:
    """Plain Taylor series with exact summation of the computed terms.

    Returns (value, terms, est_error); est_error tracks both the
    truncation tail and the cancellation floor eps * sum|t_n|.
    """
    z = float(z)  # a Python float overflows to inf without a warning
    terms = [1.0]
    abs_sum = 1.0
    weighted_abs = 0.0  # sum n*|t_n|, drives the power-chain rounding estimate
    power = 1.0
    prev_mag = 1.0
    n = 1
    tail = 0.0
    while n <= _SERIES_MAX_TERMS:
        power *= z
        if not math.isfinite(power):
            # z^n left double range before the terms became negligible;
            # an infinite estimate makes the caller reject the sum
            return math.fsum(terms), n, math.inf
        t = power * rgamma(alpha * n + 1.0)
        terms.append(t)
        mag = abs(t)
        abs_sum += mag
        weighted_abs += n * mag
        partial_scale = max(abs(math.fsum(terms)), 1e-3) if mag < 1e-12 else 1.0
        if mag <= 1e-18 * partial_scale and mag <= prev_mag:
            tail = mag
            break
        prev_mag = mag
        n += 1
    value = math.fsum(terms)
    # weighted term also covers gamma-argument rounding, psi(a*n) <= ~ln(n)
    est = _EPS * (4.0 * abs_sum + 2.0 * weighted_abs) + tail
    return value, n + 1, est


def _series_mp(alpha: float, z: float, peak: float) -> tuple[float, int, float]:
    """Taylor series in extended precision, sized from the peak-term estimate."""
    dps = 20 + int(peak / math.log(10.0)) + 5
    if dps > _MP_MAX_DPS:
        raise AccuracyError(
            f"extended-precision series would need {dps} digits for "
            f"alpha={alpha}, z={z}",
            value=math.nan,
            est_error=math.inf,
        )
    n_peak = peak / alpha
    if 3 * n_peak + 200 > _MP_MAX_TERMS:
        raise AccuracyError(
            f"extended-precision series would need ~{int(n_peak)} terms for "
            f"alpha={alpha}, z={z}",
            value=math.nan,
            est_error=math.inf,
        )
    with mpmath.workdps(dps):
        mz = mpmath.mpf(z)
        ma = mpmath.mpf(alpha)  # gamma argument must carry full precision
        total = mpmath.mpf(1)
        power = mpmath.mpf(1)
        cutoff = mpmath.mpf(10) ** (-(dps - 2))
        n = 1
        prev_mag = mpmath.mpf(1)
        while n <= _MP_MAX_TERMS:
            power *= mz
            t = power / mpmath.gamma(ma * n + 1)
            total += t
            mag = abs(t)
            if mag < cutoff and mag <= prev_mag and n > n_peak:
                break
            prev_mag = mag
            n += 1
        value = float(total)
    # rounding at working precision acts on partial sums of size exp(peak)
    est = max((n + 1) * 10.0 ** (-dps) * math.exp(peak), 1e-22)
    return value, n + 1, est


_LOG_PI = math.log(math.pi)


def _asymptotic(alpha: float, x: float) -> tuple[float, int, float]:
    """Large-x expansion E_a(-x) ~ sum (-1)^(k+1) x^(-k)/Gamma(1-a*k).

    The reflection formula bounds each term by the smooth envelope
    ``x^(-k) Gamma(a*k) / pi``; the raw magnitudes oscillate below it
    (they vanish where a*k is an integer), so the envelope drives both
    the optimal-truncation stop and the error estimate.
    """
    log_x = math.log(x)
    inv = 1.0 / x
    total = 0.0
    abs_sum = 0.0
    power = 1.0
    sign = 1.0
    log_env_prev = math.inf
    terms_used = 0
    est = math.inf
    for k in range(1, _ASYMP_MAX_TERMS + 2):
        log_env = -k * log_x + math.lgamma(alpha * k) - _LOG_PI
        if log_env > log_env_prev or k > _ASYMP_MAX_TERMS:
            est = math.exp(min(log_env, 700.0))
            break
        power *= inv
        t = sign * power * rgamma(1.0 - alpha * k)
        sign = -sign
        total += t
        abs_sum += abs(t)
        terms_used = k
        log_env_prev = log_env
        if log_env <= math.log(1e-18 * max(abs(total), 1e-300)):
            est = math.exp(max(log_env, -745.0))
            break
    # remainder beyond optimal truncation carries an exponentially small
    # piece ~ exp(-x^(1/a)) that no power of 1/x can represent
    log_peak = log_x / alpha
    expo = math.exp(-math.exp(log_peak)) if log_peak < 6.6 else 0.0
    return total, terms_used, 2.0 * est + expo + _EPS * (2.0 * abs_sum)


@lru_cache(maxsize=256)
def asymptotic_crossover(alpha: float) -> float:
    """Smallest x at which the asymptotic expansion meets the accuracy target.

    Above the returned value E_a(-x) is evaluated asymptotically, below it
    by the (precision-escalating) Taylor series.
    """
    _check_order(alpha)
    lo, hi = 1.0, 80.0
    if _asymptotic(alpha, hi)[2] > _TARGET:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _asymptotic(alpha, mid)[2] <= _TARGET:
            hi = mid
        else:
            lo = mid
    return hi


def ml_one_param(alpha: float, z: float) -> MlEvaluation:
    """Evaluate the one-parameter Mittag-Leffler function E_a(z).

    Parameters
    ----------
    alpha : order in (0, 1].
    z : real argument.  Accuracy (absolute error <= 1e-10) is guaranteed
        on z in [-50, 0]; more negative arguments return the asymptotic
        value together with its error estimate.

    Raises
    ------
    DomainError
        if alpha is outside (0, 1].
    AccuracyError
        if no evaluation route can reach the accuracy target (carries the
        best-effort value and its estimated error).
    """
    _check_order(alpha)
    if math.isnan(z):
        raise DomainError("argument must not be NaN")
    if z == 0.0:
        return MlEvaluation(1.0, 1, "series", 0.0)
    if alpha == 1.0:
        return MlEvaluation(math.exp(z), 1, "series", 2.0 * _EPS * math.exp(z))

    x = -z
    if z > 0.0:
        # convergent but growing series; no asymptotic alternative here
        value, terms, est = _series_double(alpha, z)
        # a power past double range stops the series with est = inf
        if not math.isfinite(value + est) or est > max(_TARGET, 1e-13 * abs(value)):
            raise AccuracyError(
                f"series for E_{alpha}({z}) reached est_error={est:.2e}",
                value=value,
                est_error=est,
            )
        return MlEvaluation(value, terms, "series", est)

    peak = x ** (1.0 / alpha)  # log of the largest series term
    if peak <= _SERIES_DOUBLE_LIMIT:
        value, terms, est = _series_double(alpha, z)
        if est <= _TARGET:
            return MlEvaluation(value, terms, "series", est)

    if x >= asymptotic_crossover(alpha) or x > 50.0:
        value, terms, est = _asymptotic(alpha, x)
        return MlEvaluation(value, terms, "asymptotic", est)

    try:
        value, terms, est = _series_mp(alpha, z, peak)
    except AccuracyError as exc:
        value, terms, est = _asymptotic(alpha, x)
        raise AccuracyError(
            f"{exc.args[0]}; best asymptotic value carries est_error={est:.2e}",
            value=value,
            est_error=est,
        ) from None
    return MlEvaluation(value, terms, "series", est)


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

    Elements whose series cancellation stays benign are summed together
    in a vectorized Taylor loop.  The rest are recovered by inverting
    the Laplace pair E_a(-t^a) <-> s^(a-1)/(1+s^a) on a fixed Talbot
    contour, which vectorizes across points; both branches stay within
    the 1e-10 absolute guarantee of the scalar evaluator.
    """
    _check_order(alpha)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z_arr > 0.0) or np.any(np.isnan(z_arr)):
        raise DomainError("ml_values expects non-positive arguments")
    out = np.empty_like(z_arr)
    if alpha == 1.0:
        np.exp(z_arr, out=out)
        return out

    peak = (-z_arr) ** (1.0 / alpha)
    easy = peak <= _SERIES_DOUBLE_LIMIT
    if np.any(easy):
        out[easy] = _series_vec(alpha, z_arr[easy], float(peak[easy].max()))
    hard = ~easy
    if np.any(hard):
        out[hard] = _talbot_vec(alpha, peak[hard])
    return out


def _talbot_vec(alpha: float, t: np.ndarray, m: int = 24) -> np.ndarray:
    """E_a(-t^a) for t > 0 via the fixed Talbot contour, vectorized in t."""
    r = 2.0 * m / (5.0 * t)
    theta = np.arange(1, m) * (math.pi / m)
    cot = np.cos(theta) / np.sin(theta)
    s = r[:, None] * theta * (cot + 1j)  # shape (points, nodes)
    f = s ** (alpha - 1.0) / (1.0 + s**alpha)
    sigma = theta + (theta * cot - 1.0) * cot
    series = np.exp(s * t[:, None]) * f * (1.0 + 1j * sigma)
    acc = series.real.sum(axis=1)
    # the real contour point theta = 0: s = r, correction weight 1/2
    acc += 0.5 * np.exp(r * t) * r ** (alpha - 1.0) / (1.0 + r**alpha)
    return acc * r / m


def _series_vec(alpha: float, z: np.ndarray, max_peak: float) -> np.ndarray:
    total = np.ones_like(z)
    power = np.ones_like(z)
    n_min = int(max_peak / alpha) + 5
    n = 1
    while True:
        power = power * z
        t = power * rgamma(alpha * n + 1.0)
        total += t
        if n >= n_min and np.all(np.abs(t) <= 1e-18):
            break
        n += 1
        if n > _SERIES_MAX_TERMS:  # unreachable for max_peak <= 9
            break
    return total
