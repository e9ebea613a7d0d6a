"""Reference values that do not call ctstat.

Every function here is derived from a different formula than the one
ctstat uses for the same quantity, so a defect in the package cannot
cancel out of a check:

* Mittag-Leffler values E_a(-x) come from the spectral integral
  E_a(-tau^a) = int_0^inf exp(-r tau) K_a(r) dr, summed by the
  trapezoid rule on the real line (ctstat uses series, asymptotics and
  Talbot contours), or from the Taylor series in mpmath.
* Counts of Mittag-Leffler streams come from the Prabhakar series
  p_n(t) = sum_{m>=n} (-1)^(m-n) C(m, n) x^m / Gamma(a m + 1), x = t^a,
  summed in mpmath, and from the generating-function identity
  E z^N(t) = E_a(-(1 - z) t^a).
* Sums of uniform jumps use cardinal B-splines (Cox-de Boor), sums of
  exponential jumps the Erlang law, sums of Pareto jumps a Panjer
  recursion on lower and upper lattices that brackets the true cdf.

Arrays are processed in small chunks so the oracles never set the
peak memory of the benchmark process.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammainc, gammaln

_CHUNK = 64


def ml_neg(a: float, x) -> np.ndarray:
    """E_a(-x) for x >= 0 and order 0 < a <= 1, absolute error ~1e-13.

    With v = a log r the spectral integral becomes
    sin(a pi)/(a pi) * int exp(-tau e^(v/a)) / (2 cosh v + 2 cos(a pi)) dv,
    whose integrand is analytic in a strip of half-width
    min(pi (1 - a), pi a / 2); the trapezoid step is chosen from that
    width so the discretization error sits near 1e-15.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("ml_neg needs finite x >= 0")
    if a == 1.0:
        return np.exp(-x)
    theta = a * math.pi
    width = 0.7 * min(math.pi * (1.0 - a), 0.5 * math.pi * a)
    h = 2.0 * math.pi * width / 36.0
    v = np.arange(-40.0, 40.0 + h, h)
    weight = h / (2.0 * (np.cosh(v) + math.cos(theta)))
    growth = np.exp(v / a)
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        tau = flat[lo : lo + _CHUNK] ** (1.0 / a)
        out[lo : lo + _CHUNK] = np.exp(-np.outer(tau, growth)) @ weight
    out *= math.sin(theta) / theta
    return out.reshape(x.shape)


def ml_neg_mp(a: float, x: float) -> float:
    """E_a(-x) from the Taylor series in mpmath, precision sized to its
    largest term exp(x^(1/a))."""
    if x == 0.0:
        return 1.0
    peak = x ** (1.0 / a)
    dps = 25 + int(peak / math.log(10.0))
    with mpmath.workdps(dps):
        ma = mpmath.mpf(a)
        mx = -mpmath.mpf(x)
        cutoff = mpmath.mpf(10) ** (-dps + 3)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        k = 0
        while True:
            term = power / mpmath.gamma(ma * k + 1)
            total += term
            if k > peak / a + 5 and abs(term) < cutoff:
                return float(total)
            power *= mx
            k += 1


def fractional_pmf(a: float, t: float, n_max: int) -> np.ndarray:
    """P(N(t) = n), n = 0..n_max, for Mittag-Leffler(a) waits.

    Prabhakar series in mpmath.  Its terms are bounded by
    2^m x^m / Gamma(a m + 1), whose peak exp((2x)^(1/a)) sizes the
    working precision; keep t modest (the cost grows with 2^(1/a) t).
    """
    x = t**a
    peak = (2.0 * x) ** (1.0 / a)
    dps = 25 + int(peak / math.log(10.0))
    m_max = int(3 * peak / a) + n_max + 60
    with mpmath.workdps(dps):
        ma = mpmath.mpf(a)
        mx = mpmath.mpf(x)
        coeff = [mx**m / mpmath.gamma(ma * m + 1) for m in range(m_max + 1)]
        out = np.empty(n_max + 1)
        for n in range(n_max + 1):
            acc = mpmath.mpf(0)
            binom = mpmath.mpf(1)  # C(m, n) at m = n
            sign = 1
            for m in range(n, m_max + 1):
                acc += sign * binom * coeff[m]
                sign = -sign
                binom = binom * (m + 1) / (m + 1 - n)
            out[n] = float(acc)
    return out


def fractional_pmf_cover(a: float, t: float, mass: float = 1e-13) -> np.ndarray:
    """fractional_pmf extended until less than ``mass`` lies beyond it."""
    n_max = max(8, int(4 * t**a) + 8)
    while True:
        pmf = fractional_pmf(a, t, n_max)
        if 1.0 - pmf.sum() < mass:
            return pmf
        n_max *= 2


def poisson_pmf_cover(mu: float) -> np.ndarray:
    """Poisson(mu) probabilities out to mu + 12 sd + 30, beyond which
    less than 1e-15 of the mass lies."""
    n_max = int(mu + 12.0 * math.sqrt(mu) + 30)
    n = np.arange(n_max + 1, dtype=float)
    if mu == 0.0:
        return (n == 0).astype(float)
    return np.exp(n * math.log(mu) - mu - gammaln(n + 1.0))


def erlang_mixture_cdf(pmf: np.ndarray, rate: float, u) -> np.ndarray:
    """sum_n pmf_n * P(Gamma(n, rate) <= u), the n = 0 term a unit step."""
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, pmf[0])
    for n in range(1, pmf.size):
        if pmf[n] > 1e-300:
            out += pmf[n] * gammainc(n, rate * u)
    return out


def irwin_hall_mixture_cdf(pmf: np.ndarray, upper: float, u) -> np.ndarray:
    """sum_n pmf_n * P(U_1 + .. + U_n <= u), U_i uniform on (0, upper].

    The cdf of n uniforms at y is sum_j N_{n+1}(y - j) with N_k the
    cardinal B-spline of order k; the Cox-de Boor recursion builds all
    orders with positive weights only, so no cancellation occurs.
    """
    y = np.asarray(u, dtype=float).ravel() / upper
    out = np.empty(y.size)
    n_top = pmf.size - 1
    for lo in range(0, y.size, _CHUNK):
        yc = y[lo : lo + _CHUNK]
        shifts = np.arange(int(math.floor(yc.max())) + 2)
        z = yc[:, None] - shifts[None, :]  # arguments y - j
        spline = ((z >= 0.0) & (z < 1.0)).astype(float)  # order 1
        acc = pmf[0] * np.ones(yc.size)
        for k in range(2, n_top + 2):
            nxt = np.zeros_like(spline)
            nxt[:, :-1] = spline[:, 1:]  # N_{k-1}(y - j - 1)
            spline = (z * spline + (k - z) * nxt) / (k - 1)
            acc += pmf[k - 1] * spline.sum(axis=1)
        out[lo : lo + _CHUNK] = acc
    return out.reshape(np.shape(u))


def pareto_poisson_bracket(mu, scale, exponent, u_max, cells=8192):
    """Lower and upper cdf of a Poisson(mu) sum of Pareto jumps.

    Rounding every jump down to the lattice h*Z makes the sum smaller,
    hence its cdf an upper bound; rounding up gives a lower bound.  Both
    lattice laws are exact by the Panjer recursion.  Returns
    (lattice points, lower cdf, upper cdf).
    """
    h = u_max / cells
    k = np.arange(cells + 2, dtype=float)

    def cdf(x):
        return np.where(x >= scale, 1.0 - (scale / np.maximum(x, scale)) ** exponent, 0.0)

    def compound(mass):
        g = np.empty(cells + 1)
        g[0] = math.exp(-mu * (1.0 - mass[0]))
        jm = np.arange(cells + 1) * mass[: cells + 1]
        for i in range(1, cells + 1):
            g[i] = mu / i * np.dot(jm[1 : i + 1], g[i - 1 :: -1])
        return np.cumsum(g)

    down = cdf(h * (k[:-1] + 1)) - cdf(h * k[:-1])  # mass of X in [kh, (k+1)h)
    up = np.empty(cells + 1)  # mass of X in ((k-1)h, kh]
    up[0] = 0.0
    up[1:] = cdf(h * k[1:-1]) - cdf(h * k[:-2])
    return h * k[: cells + 1], compound(up), compound(down)


def pareto_poisson_low_cdf(mu, scale, exponent, u) -> np.ndarray:
    """Exact cdf on u < 2*scale, where at most one jump fits."""
    u = np.asarray(u, dtype=float)
    f = np.where(u >= scale, 1.0 - (scale / np.maximum(u, scale)) ** exponent, 0.0)
    return math.exp(-mu) * (1.0 + mu * f)


def ks_gap(sorted_samples: np.ndarray, cdf_at, atom_at_zero: bool) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a cdf.

    Tied values are compared from above only, except that the left
    limit at an atom at zero is known (it is 0), so there the gap from
    below is taken as well.
    """
    x = np.asarray(sorted_samples, dtype=float)
    n = x.size
    distinct, first, counts = np.unique(x, return_index=True, return_counts=True)
    f = np.asarray(cdf_at(distinct), dtype=float)
    last = first + counts
    gap = float(np.max(np.abs(last / n - f)))
    left = f.copy()
    if atom_at_zero and distinct[0] == 0.0:
        left[0] = 0.0
    single = counts == 1
    single[0] |= atom_at_zero and distinct[0] == 0.0
    if np.any(single):
        gap = max(gap, float(np.max(np.abs(first[single] / n - left[single]))))
    return gap


# sqrt(n) * D > 2.5 has probability about 2 exp(-12.5) = 7.5e-6 for a
# correct sampler, so a passing program never fails this check by chance
KS_WIDE = 2.5
# per-node binomial bound for occupancy fractions: 5 sigma over 41 nodes
# keeps the false-alarm rate per request near 2e-5
SIGMA_WIDE = 5.0
