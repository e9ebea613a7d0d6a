"""Request lists of the three workloads, generated from a seed.

Only the standard library is imported here, so a fresh interpreter can
build a request before ``import ctstat`` starts its clock.

Every continuous parameter of a family with k requests is drawn once
per stratum: the range is cut into k equal strata and request i takes
a value near the centre of stratum i, jittered by ``JITTER`` of the
stratum width, with mirrored strata jittered in opposite directions.
The seed therefore moves every value, but each seed yields a list of
nearly the same total cost, which keeps the run-to-run spread of the
timings small.  Request i takes stratum i in every dimension, so the
corner with the largest orders and the longest horizons is always
present.

The count tables of Mittag-Leffler streams lose mass conservation at
orders near 1 and long horizons (about 0.8 from t=150, 0.9 from t=50).
The measured workloads keep the families that build long count tables
(``chain``, ``pmf``, ``analytic --stat max``) at orders up to
``COUNT_ORDER_MAX``, where every request is right; ``defect_probe``
holds the corner beyond it, which the traced run sends and reports
separately, so the defect stays visible until the count layer is fixed.

The families are several requests wide so that the latency quantiles
of a run fall among many similar requests rather than on one of a few
very different ones, and every pass holds an odd number of requests so
that the median sample is the middle copy of one request.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

JITTER = 0.2  # share of a stratum's width the seed may move a value

WORKLOADS = ("verify", "fractional", "convolution")
CONTROLS = 34  # Erlang-exact sums and max laws per convolution pass
# highest order of the fractional families that build long count tables
COUNT_ORDER_MAX = 0.7
# about the seconds one pass takes at the baseline on a 2-core x86
# machine; a run makes seconds // PASS_S passes, a fixed count, so every
# commit's latency percentiles come from the same number of samples
PASS_S = {"verify": 12.0, "fractional": 6.0, "convolution": 4.5}


@dataclass
class Request:
    """One request: a ctstat command line, or a direct API call when
    ``argv`` is None (``simulate_chain`` has no subcommand).  ``params``
    holds the parsed values the oracle needs."""

    family: str
    argv: list | None
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        if self.argv is not None:
            return "ctstat " + " ".join(self.argv)
        return f"simulate_chain({self.params})"


def _num(x: float) -> float:
    """Round to the 7 digits written on the command line."""
    return float(f"{x:.7g}")


def _text(x: float) -> str:
    return f"{x:.7g}"


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool = False,
            jitter: float = JITTER):
    """k values of [lo, hi], value i near the centre of stratum i."""
    u = [rng.random() for _ in range(k)]
    for i in range(k // 2):
        u[k - 1 - i] = 1.0 - u[i]  # mirrored strata jitter the other way
    out = []
    for i in range(k):
        q = (i + 0.5 + jitter * (u[i] - 0.5)) / k
        if log:
            out.append(_num(lo * (hi / lo) ** q))
        else:
            out.append(_num(lo + (hi - lo) * q))
    return out


def _ints(values):
    return [int(round(v)) for v in values]


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _redraw_chain(rng: random.Random, n_states: int):
    """A redraw chain with real spectrum: Q = D^-1 W with W symmetric."""
    if n_states == 2:
        p = _num(rng.uniform(0.2, 0.9))
        q = _num(rng.uniform(0.2, 0.9))
        return [[_num(1.0 - p), p], [q, _num(1.0 - q)]]
    w = [[0.0] * n_states for _ in range(n_states)]
    for i in range(n_states):
        for j in range(i, n_states):
            w[i][j] = w[j][i] = rng.uniform(0.2, 1.0)
    rows = []
    for row in w:
        total = sum(row)
        cells = [_num(c / total) for c in row[:-1]]
        rows.append(cells + [1.0 - sum(cells)])
    return rows


def _matrix_text(rows) -> str:
    return ";".join(",".join(repr(c) for c in row) for row in rows)


def _verify(rng: random.Random) -> list:
    reqs = []
    k = 4
    for a, t, n, r in zip(_strata(rng, k, 0.5, 0.95), _strata(rng, k, 0.5, 5.0),
                          _ints(_strata(rng, k, 2e4, 1e5, log=True)), _strata(rng, k, 0.5, 2.0)):
        argv = ["compare", "--stat", "max", "--alpha", _text(a), "--t", _text(t),
                "--jumps", f"exp:{_text(r)}", "--paths", str(n), "--seed", str(_seed(rng))]
        reqs.append(Request("compare_max_ml", argv, {"paths": n}))

    # long horizons get the fewer paths: up to ~50 events per path
    for i, (t, n, r) in enumerate(zip(_strata(rng, k, 1.0, 50.0),
                                      _ints(_strata(rng, k, 2e4, 1e5, log=True))[::-1],
                                      _strata(rng, k, 0.5, 2.0))):
        stat = ("sum", "max")[i % 2]
        argv = ["compare", "--stat", stat, "--waits", "exp:1", "--t", _text(t),
                "--jumps", f"exp:{_text(r)}", "--paths", str(n), "--seed", str(_seed(rng))]
        reqs.append(Request(f"compare_{stat}_exp", argv, {"paths": n}))

    k = 3
    for t, n, r in zip(_strata(rng, k, 1.0, 20.0), _ints(_strata(rng, k, 2e4, 1e5, log=True)),
                       _strata(rng, k, 0.5, 2.0)):
        argv = ["simulate", "--stat", "sum", "--waits", "exp:1", "--t", _text(t),
                "--jumps", f"exp:{_text(r)}", "--paths", str(n), "--seed", str(_seed(rng))]
        reqs.append(Request("simulate_sum", argv,
                            {"wait_rate": 1.0, "t": t, "jump_rate": r, "paths": n}))

    k = 4
    for a, tmax, n in zip(_strata(rng, k, 0.5, 0.95), _strata(rng, k, 2.0, 10.0),
                          _ints(_strata(rng, k, 2e4, 1e5, log=True))[::-1]):
        reqs.append(Request("simulate_chain", None, {
            "q": [[0.0, 1.0], [0.0, 1.0]], "start": 0, "alpha": a,
            "tmax": tmax, "points": 41, "paths": n, "seed": _seed(rng)}))
    return reqs


def _fractional(rng: random.Random) -> list:
    reqs = []
    # the chains are the slowest requests, so they set latency_tail_s:
    # order, horizon and grid, which fix the count tables a chain builds,
    # sit at stratum centres; the seed draws the chain and its start
    k = 6
    for i, (a, tmax, n_pts) in enumerate(zip(_strata(rng, k, 0.5, COUNT_ORDER_MAX, jitter=0.0),
                                             _strata(rng, k, 20.0, 200.0, jitter=0.0),
                                             _ints(_strata(rng, k, 41, 101, jitter=0.0)))):
        reqs.append(_chain(rng, 2 + i % 2, a, tmax, n_pts))

    k = 4
    for a, t in zip(_strata(rng, k, 0.5, COUNT_ORDER_MAX), _strata(rng, k, 1.0, 500.0, log=True)):
        reqs.append(_pmf(a, t))

    k = 12
    combos = [(s, m) for s in ("survival", "marginal", "counting") for m in ("stehfest", "talbot")] * 2
    rng.shuffle(combos)
    for (symbol, method), a, lo, hi, n_pts in zip(
            combos, _strata(rng, k, 0.5, 0.95), _strata(rng, k, 0.05, 0.5),
            _strata(rng, k, 2.0, 6.0), _ints(_strata(rng, k, 50, 100))):
        argv = ["invert", "--symbol", symbol, "--alpha", _text(a), "--method", method,
                "--tmin", _text(lo), "--tmax", _text(hi), "--points", str(n_pts)]
        params = {"symbol": symbol, "method": method, "alpha": a}
        if symbol == "marginal":
            params["v"] = _num(rng.uniform(0.1, 0.9))
            argv += ["--v", _text(params["v"])]
        elif symbol == "counting":
            params["n"] = rng.randrange(5)
            argv += ["--n", str(params["n"])]
        reqs.append(Request("invert", argv, params))

    # the next slowest: the share of points in the mpmath band moves
    # with the order, so order and point count sit at stratum centres
    k = 3
    for a, z, n_pts in zip(_strata(rng, k, 0.5, 0.95, jitter=0.0),
                           _strata(rng, k, -40.0, -5.0, jitter=0.05)[::-1],
                           _ints(_strata(rng, k, 500, 2000, jitter=0.0))):
        argv = ["ml", "--alpha", _text(a), "--zmin", _text(z), "--zmax", "0",
                "--points", str(n_pts)]
        reqs.append(Request("ml", argv, {"alpha": a}))

    k = 4
    for a, t, r in zip(_strata(rng, k, 0.5, 0.95), _strata(rng, k, 1.0, 20.0),
                       _strata(rng, k, 0.5, 2.0)):
        umax = _num(2.0 * t**a / r + 4.0 / r)
        argv = ["analytic", "--stat", "sum", "--jumps", f"exp:{_text(r)}", "--alpha", _text(a),
                "--t", _text(t), "--umax", _text(umax)]
        reqs.append(Request("analytic_sum_ml", argv, {"alpha": a, "t": t, "jump_rate": r}))

    k = 6
    for a, t, r in zip(_strata(rng, k, 0.5, COUNT_ORDER_MAX), _strata(rng, k, 1.0, 200.0, log=True),
                       _strata(rng, k, 0.5, 2.0)):
        reqs.append(_analytic_max_ml(a, t, r))
    return reqs


def _chain(rng: random.Random, n_states: int, a: float, tmax: float, n_pts: int) -> Request:
    rows = _redraw_chain(rng, n_states)
    argv = ["chain", "--q", _matrix_text(rows), "--start", str(rng.randrange(len(rows))),
            "--alpha", _text(a), "--tmax", _text(tmax), "--points", str(n_pts)]
    return Request("chain", argv, {"q": rows, "alpha": a})


def _pmf(a: float, t: float) -> Request:
    return Request("pmf", ["pmf", "--alpha", _text(a), "--t", _text(t)], {"alpha": a, "t": t})


def _analytic_max_ml(a: float, t: float, r: float) -> Request:
    umax = _num((math.log(1.0 + t) + 4.0) / r)
    argv = ["analytic", "--stat", "max", "--jumps", f"exp:{_text(r)}", "--alpha", _text(a),
            "--t", _text(t), "--umax", _text(umax)]
    return Request("analytic_max_ml", argv, {"alpha": a, "t": t, "jump_rate": r})


def _convolution(rng: random.Random) -> list:
    # The grid path's cost jumps between refinement levels when the count
    # mean moves by ~0.1, so the shape parameters of the two grid families
    # sit at stratum centres; the seed draws the jump scale, which scales
    # the law without changing the work.
    # Few of the slow requests per pass, so that a run holds enough passes
    # for its median pass to shrug off a few seconds of a busy host.
    reqs = []
    k = 3
    for t, r in zip(_strata(rng, k, 10.0, 30.0, jitter=0.0), _strata(rng, k, 0.8, 1.0, jitter=0.0)):
        b = _num(rng.uniform(0.5, 2.0))
        mu = r * t
        # the bulk of the law; past ~21 jump widths the grid path of the
        # package cannot meet its budget below the 2^18-cell cap
        umax = _num(b * (0.5 * mu + 1.5 * math.sqrt(mu / 3.0)))
        argv = ["analytic", "--stat", "sum", "--jumps", f"uniform:{_text(b)}",
                "--waits", f"exp:{_text(r)}", "--t", _text(t), "--umax", _text(umax)]
        reqs.append(Request("sum_uniform", argv, {"rate": r, "t": t, "upper": b}))

    k = 2
    for t, e, r, f in zip(_strata(rng, k, 1.0, 5.0, jitter=0.0), _strata(rng, k, 1.2, 3.0, jitter=0.0),
                          _strata(rng, k, 0.5, 1.5, jitter=0.0), _strata(rng, k, 4.0, 8.0, jitter=0.0)):
        s = _num(rng.uniform(0.5, 1.0))
        umax = _num(s * f)
        argv = ["analytic", "--stat", "sum", "--jumps", f"pareto:{_text(s)},{_text(e)}",
                "--waits", f"exp:{_text(r)}", "--t", _text(t), "--umax", _text(umax)]
        reqs.append(Request("sum_pareto", argv,
                            {"rate": r, "t": t, "scale": s, "exponent": e, "umax": umax}))

    # the sweep costs ~1/h^2, so the step sits at stratum centres
    k = 3
    for a, h, c in zip(_strata(rng, k, 0.3, 0.9),
                       _strata(rng, k, 1.25e-4, 1e-3, log=True, jitter=0.0),
                       _strata(rng, k, 0.5, 2.0)):
        argv = ["solve", "--kernel", "powerlaw", "--alpha", _text(a), "--c", _text(c),
                "--tmax", "5", "--h", _text(h)]
        reqs.append(Request("solve_powerlaw", argv, {"alpha": a, "c": c}))

    c, h = _num(rng.uniform(0.5, 2.0)), _num(rng.uniform(5e-4, 1e-3))
    argv = ["solve", "--kernel", "delta", "--c", _text(c), "--tmax", "5", "--h", _text(h)]
    reqs.append(Request("solve_delta", argv, {"c": c}))

    # cheap controls outnumber the other requests nearly four to one, so the
    # median latency is a control's and the loops show in wall and tail
    k = CONTROLS // 2
    for r, lam, t in zip(_strata(rng, k, 0.5, 2.0), _strata(rng, k, 0.5, 2.0),
                         _strata(rng, k, 5.0, 30.0)):
        umax = _num(lam * t / r + 6.0 * math.sqrt(2.0 * lam * t) / r)
        argv = ["analytic", "--stat", "sum", "--jumps", f"exp:{_text(r)}",
                "--waits", f"exp:{_text(lam)}", "--t", _text(t), "--umax", _text(umax)]
        reqs.append(Request("sum_erlang", argv, {"rate": lam, "t": t, "jump_rate": r}))
    for b, lam, t in zip(_strata(rng, k, 0.5, 2.0), _strata(rng, k, 0.5, 2.0),
                         _strata(rng, k, 5.0, 30.0)):
        argv = ["analytic", "--stat", "max", "--jumps", f"uniform:{_text(b)}",
                "--waits", f"exp:{_text(lam)}", "--t", _text(t), "--umax", _text(b)]
        reqs.append(Request("max_uniform", argv, {"rate": lam, "t": t, "upper": b}))
    return reqs


_BUILDERS = {"verify": _verify, "fractional": _fractional, "convolution": _convolution}


def requests(workload: str, seed: int) -> list:
    """The request list of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def defect_probe(seed: int) -> list:
    """Fractional requests past ``COUNT_ORDER_MAX``, where the count
    tables of Mittag-Leffler streams are known to lose mass conservation
    (orders 0.9 to 0.95, horizons 100 to 200).  They are sent apart from
    the measured passes and must fail until the count layer is fixed."""
    rng = random.Random(f"fractional:probe:{seed}")
    k = 2
    reqs = [_chain(rng, 2 + i, a, tmax, 41) for i, (a, tmax) in
            enumerate(zip(_strata(rng, k, 0.9, 0.95), _strata(rng, k, 150.0, 200.0)))]
    reqs += [_pmf(a, t) for a, t in zip(_strata(rng, k, 0.9, 0.95), _strata(rng, k, 100.0, 200.0))]
    reqs += [_analytic_max_ml(a, t, r) for a, t, r in
             zip(_strata(rng, k, 0.9, 0.95), _strata(rng, k, 100.0, 200.0), _strata(rng, k, 0.5, 2.0))]
    return reqs


def setup_request(workload: str, seed: int) -> Request:
    """The small first request a fresh process runs: it pays the imports
    and lazy caches on the layer path the workload exercises most."""
    rng = random.Random(f"{workload}:setup:{seed}")
    a = _text(rng.uniform(0.6, 0.8))
    if workload == "verify":
        argv = ["compare", "--stat", "max", "--alpha", a, "--t", "1", "--jumps", "exp:1",
                "--paths", "2000", "--seed", str(_seed(rng))]
    elif workload == "fractional":
        argv = ["ml", "--alpha", a, "--zmin", "-20", "--zmax", "0", "--points", "40"]
    else:
        argv = ["solve", "--kernel", "powerlaw", "--alpha", a, "--c", "1",
                "--tmax", "1", "--h", "0.002"]
    return Request("setup", argv)


def span_probe() -> Request:
    """A tiny chain request whose trace must run cli -> stats -> renewal
    -> laplace."""
    argv = ["chain", "--q", "0.5,0.5;0.5,0.5", "--alpha", "0.7", "--tmax", "2", "--points", "3"]
    return Request("span_probe", argv)
