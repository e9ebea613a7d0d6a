"""One oracle per request family.

``prepare(request)`` computes the reference values before any timing
starts and returns a checker.  The checker takes what the request
produced (CLI text, or the array ``simulate_chain`` returned) and gives
``None`` when the output is right, else a one-line description of the
largest gap.  Tolerances are those the package documents, widened only
where its own method is approximate (Gaver-Stehfest, the relaxation
sweep) or the output is a sample (bounds with false-alarm rates below
1e-4 per request).
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles as O

# the package's default error budget for analytic routes (--tol 1e-8),
# plus room for 12-digit printing and the oracle's own ~1e-13 error
_TOL = 1e-8 + 1e-10


def _table(text: str):
    """Values of a CSV result (after its '#' config line and header)."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# "):
        raise ValueError("output is not a ctstat CSV table")
    return np.array([line.split(",") for line in lines[2:]], dtype=float)


def _gap(name: str, got, ref, tol: float, where=None):
    err = np.abs(np.asarray(got, dtype=float) - np.asarray(ref, dtype=float))
    if not np.all(np.isfinite(err)):
        return f"{name}: non-finite value"
    i = int(np.argmax(err))
    if err.flat[i] <= tol:
        return None
    at = "" if where is None else f" at {np.asarray(where).flat[i]:.6g}"
    return f"{name}: gap {err.flat[i]:.3e} > tol {tol:.0e}{at}"


def _grid_check(got, ref):
    if got.shape != ref.shape:
        return f"grid: {got.size} points, expected {ref.size}"
    return _gap("grid", got, ref, 1e-9 * max(1.0, float(np.max(np.abs(ref)))))


def _curve(ref_x, ref_y, tol, name="value"):
    """Checker for a two-column table (x, value) against references."""
    def check(text):
        v = _table(text)
        return _grid_check(v[:, 0], ref_x) or _gap(name, v[:, 1], ref_y, tol, v[:, 0])
    return check


def _flag(argv, flag):
    return argv[argv.index(flag) + 1]


def _compare(req):
    n_paths = req.params["paths"]

    def check(text):
        doc = json.loads(text)
        n, d = doc["n"], doc["d"]
        if n != n_paths:
            return f"verdict counts {n} paths, {n_paths} requested"
        if abs(doc["threshold"] - 1.63 / math.sqrt(n)) > 1e-12:
            return f"threshold {doc['threshold']} is not 1.63/sqrt(n)"
        if not (0.0 <= d <= O.KS_WIDE / math.sqrt(n)):
            return f"KS distance {d:.4g} > {O.KS_WIDE}/sqrt(n) = {O.KS_WIDE / math.sqrt(n):.4g}"
        return None
    return check


def _simulate_sum(req):
    p = req.params
    pmf = O.poisson_pmf_cover(p["wait_rate"] * p["t"])

    def check(text):
        v = _table(text)
        x = v[:, 0]
        if x.size != p["paths"]:
            return f"{x.size} samples, {p['paths']} requested"
        if np.any(x < 0.0) or np.any(np.diff(x) < 0.0):
            return "samples are negative or unsorted"
        d = O.ks_gap(x, lambda u: O.erlang_mixture_cdf(pmf, p["jump_rate"], u), True)
        if d > O.KS_WIDE / math.sqrt(x.size):
            return f"KS distance {d:.4g} > {O.KS_WIDE}/sqrt(n) = {O.KS_WIDE / math.sqrt(x.size):.4g}"
        return None
    return check


def _simulate_chain(req):
    p = req.params
    grid = np.linspace(0.0, p["tmax"], p["points"])
    survival = np.array([O.ml_neg_mp(p["alpha"], t ** p["alpha"]) for t in grid])
    n = p["paths"]
    sigma = np.sqrt(survival * (1.0 - survival) / n)

    def check(frac):
        frac = np.asarray(frac, dtype=float)
        if frac.shape != (2, grid.size):
            return f"occupancy shape {frac.shape}, expected (2, {grid.size})"
        bad = _gap("column sums", frac.sum(axis=0), 1.0, 1e-12, grid)
        if bad:
            return bad
        z = np.abs(frac[0] - survival) / (sigma + 1.0 / n)
        i = int(np.argmax(z))
        if z[i] > O.SIGMA_WIDE:
            return f"occupancy off by {z[i]:.2f} sigma at t={grid[i]:.4g}"
        return None
    return check


def _chain(req):
    argv = req.argv
    q = np.array(req.params["q"])
    a = req.params["alpha"]
    start = int(_flag(argv, "--start"))
    ts = np.linspace(0.0, float(_flag(argv, "--tmax")), int(_flag(argv, "--points")))
    # Q = V diag(lambda) V^-1, so p_start,j(t) = sum_k c_jk E lambda_k^N(t)
    # = sum_k c_jk E_a(-(1 - lambda_k) t^a).  Q is D^-1 W with W symmetric
    # before its entries are rounded to the 7 digits of the command line,
    # so the spectrum is real but Q is not exactly reversible: decompose
    # Q itself rather than its symmetrised form.
    lam, vec = np.linalg.eig(q)
    if np.max(np.abs(lam.imag)) > 1e-9:
        raise ValueError("chain oracle needs a real spectrum")
    lam, vec = lam.real, vec.real
    coef = vec[start, :][None, :] * np.linalg.inv(vec).T  # [j, k]
    gen = O.ml_neg(a, np.clip(1.0 - lam, 0.0, None)[None, :] * (ts**a)[:, None])
    ref = gen @ coef.T  # [t, j]

    def check(text):
        v = _table(text)
        return (_grid_check(v[:, 0], ts) or _gap("row sum", v[:, 1:].sum(axis=1), 1.0, 1e-6, ts)
                or _gap("occupancy", v[:, 1:], ref, 1e-6, np.repeat(ts, q.shape[0])))
    return check


def _pmf(req):
    a, t = req.params["alpha"], req.params["t"]
    zs = np.array([0.0, 0.5, -0.5, 0.9])
    ref = O.ml_neg(a, (1.0 - zs) * t**a)

    def check(text):
        v = _table(text)
        p = v[:, 1]
        if np.any(p < 0.0):
            return "negative probability"
        total = float(p.sum())
        if not (1.0 - 1.01e-6 <= total <= 1.0 + 1e-8):
            return f"mass {total:.9f} outside [1 - 1e-6, 1 + 1e-8]"
        powers = zs[:, None] ** np.arange(p.size)[None, :]
        # the mass beyond the table adds at most (1 - total) |z|^len
        err = np.abs(powers @ p - ref) - max(1.0 - total, 0.0) * np.abs(zs) ** p.size
        i = int(np.argmax(err))
        if err[i] > 1e-7:
            return f"generating function: gap {err[i]:.3e} > tol 1e-07 at z={zs[i]:g}"
        return None
    return check


def _invert(req):
    argv, p = req.argv, req.params
    a = p["alpha"]
    ts = np.linspace(float(_flag(argv, "--tmin")), float(_flag(argv, "--tmax")),
                     int(_flag(argv, "--points")))
    if p["symbol"] == "survival":
        ref = O.ml_neg(a, ts**a)
    elif p["symbol"] == "marginal":
        ref = O.ml_neg(a, (1.0 - p["v"]) * ts**a)
    else:
        ref = np.array([O.fractional_pmf(a, t, p["n"])[p["n"]] for t in ts])
    # Gaver-Stehfest keeps about 3 digits on these originals (orders 14/12
    # may differ by 5e-3 relative before the package raises)
    tol = 2e-3 if p["method"] == "stehfest" else 1e-8
    return _curve(ts, ref, tol)


def _ml(req):
    argv = req.argv
    a = req.params["alpha"]
    zs = np.linspace(float(_flag(argv, "--zmin")), float(_flag(argv, "--zmax")),
                     int(_flag(argv, "--points")))
    return _curve(zs, O.ml_neg(a, -zs), 1e-9)


def _u_grid(argv):
    return np.linspace(0.0, float(_flag(argv, "--umax")), 101)


def _analytic_sum_ml(req):
    p = req.params
    u = _u_grid(req.argv)
    pmf = O.fractional_pmf_cover(p["alpha"], p["t"])
    return _curve(u, O.erlang_mixture_cdf(pmf, p["jump_rate"], u), _TOL)


def _analytic_max_ml(req):
    p = req.params
    w = _u_grid(req.argv)
    ref = O.ml_neg(p["alpha"], np.exp(-p["jump_rate"] * w) * p["t"] ** p["alpha"])
    return _curve(w, ref, _TOL)


def _sum_uniform(req):
    p = req.params
    u = _u_grid(req.argv)
    pmf = O.poisson_pmf_cover(p["rate"] * p["t"])
    return _curve(u, O.irwin_hall_mixture_cdf(pmf, p["upper"], u), _TOL)


def _sum_pareto(req):
    p = req.params
    u = _u_grid(req.argv)
    mu = p["rate"] * p["t"]
    x, lower, upper = O.pareto_poisson_bracket(mu, p["scale"], p["exponent"], p["umax"])
    cell = np.minimum(np.floor(u / (x[1] - x[0]) + 1e-9).astype(int), x.size - 1)
    low = u < 2.0 * p["scale"]
    exact = O.pareto_poisson_low_cdf(mu, p["scale"], p["exponent"], u[low])

    def check(text):
        v = _table(text)
        bad = _grid_check(v[:, 0], u) or _gap("cdf below two scales", v[low, 1], exact, _TOL, u[low])
        if bad:
            return bad
        below = lower[cell] - 1e-6 - v[:, 1]
        above = v[:, 1] - upper[cell] - 1e-6
        out = np.maximum(below, above)
        i = int(np.argmax(out))
        if out[i] > 0.0:
            return f"cdf {v[i, 1]:.6g} outside lattice bracket [{lower[cell[i]]:.6g}, {upper[cell[i]]:.6g}] at {u[i]:.4g}"
        return None
    return check


def _solve(req):
    argv, p = req.argv, req.params
    h = float(_flag(argv, "--h"))
    tmax = float(_flag(argv, "--tmax"))
    n = int(math.floor(tmax / h + 1e-9))
    times = h * np.arange(n + 1)
    if req.family == "solve_delta":
        ref_idx = np.arange(n + 1)
        ref = np.exp(-p["c"] * times)
        tol = 1e-12
    else:
        # 257 nodes spread over the grid; all 4e4 would add seconds of oracle time
        ref_idx = np.unique(np.linspace(0, n, 257).astype(int))
        ref = O.ml_neg(p["alpha"], p["c"] * times[ref_idx] ** p["alpha"])
        tol = 1e-3  # the package's accepted bound for this sweep

    def check(text):
        v = _table(text)
        if v.shape[0] != n + 1:
            return f"{v.shape[0]} nodes, expected {n + 1}"
        if np.any(v[:, 2] < 0.0):
            return "negative est_error"
        return _grid_check(v[:, 0], times) or _gap("Q", v[ref_idx, 1], ref, tol, times[ref_idx])
    return check


def _sum_erlang(req):
    p = req.params
    u = _u_grid(req.argv)
    pmf = O.poisson_pmf_cover(p["rate"] * p["t"])
    return _curve(u, O.erlang_mixture_cdf(pmf, p["jump_rate"], u), _TOL)


def _max_uniform(req):
    p = req.params
    w = _u_grid(req.argv)
    ref = np.exp(-p["rate"] * p["t"] * (1.0 - np.minimum(w / p["upper"], 1.0)))
    return _curve(w, ref, _TOL)


_PREPARE = {
    "compare_max_ml": _compare,
    "compare_sum_exp": _compare,
    "compare_max_exp": _compare,
    "simulate_sum": _simulate_sum,
    "simulate_chain": _simulate_chain,
    "chain": _chain,
    "pmf": _pmf,
    "invert": _invert,
    "ml": _ml,
    "analytic_sum_ml": _analytic_sum_ml,
    "analytic_max_ml": _analytic_max_ml,
    "sum_uniform": _sum_uniform,
    "sum_pareto": _sum_pareto,
    "solve_powerlaw": _solve,
    "solve_delta": _solve,
    "sum_erlang": _sum_erlang,
    "max_uniform": _max_uniform,
}


def prepare(req):
    """Reference values for one request, and the checker that uses them."""
    check = _PREPARE[req.family](req)

    def guarded(output):
        try:
            return check(output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
    return guarded
