"""Command-line front door for the library.

Each subcommand maps to one module operation, evaluated over a flag
described parameter grid and written as CSV (default) or JSON.  The
first line of every CSV output is a ``#``-prefixed JSON object holding
the fully resolved configuration, so any result file can be traced back
to, and re-run from, the exact invocation that produced it.  Every
command hands the writer one array per column; CSV is formatted a block
of rows at a time, one ``%`` per block, and written block by block.
Floats carry 12 significant digits, ints are written in full and bools
as true/false.

Exit codes: 0 on success, 2 for domain errors (bad arguments, laws, or
flag combinations, such as ``--points`` below 1 or a grid endpoint that
is not finite), 3 for numeric errors (a computation ran but missed its
accuracy contract), 4 for I/O failures.  Failure diagnostics go to
stderr.

Waiting-time laws are written ``exp:RATE`` or ``ml:ORDER``; the
``--alpha A`` shortcut stands for ``ml:A``.  Jump laws are written
``exp:RATE``, ``uniform:UPPER``, ``pareto:SCALE,EXPONENT`` or
``const:VALUE``.

The argument parser is built once per process, on the first ``main``
call, and every later call parses with that same instance.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .errors import DomainError, NumericError
from .laplace import (
    counting_symbol,
    density_symbol,
    invert,
    marginal_symbol,
    memory_kernel_symbol,
    survival_symbol,
)
from .mc import SimulationPlan, _check_seed, build_ecdf, ks_distance, simulate_statistic
from .relax import RelaxationProblem, solve_relaxation
from .renewal import Exponential, MittagLeffler, counting_pmf, generate_epochs
from .special import ml_values
from .stats import (
    DegenerateJumps,
    ExponentialJumps,
    ParetoJumps,
    StatisticKind,
    TransitionMatrix,
    UniformJumps,
    mixture_cdf,
    semi_markov_marginal,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_DOMAIN = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4


def _parse_wait_law(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "exp":
            return Exponential(float(arg))
        if kind == "ml":
            return MittagLeffler(float(arg))
    except DomainError:
        raise
    except ValueError:
        raise DomainError(f"malformed waiting law {text!r}") from None
    raise DomainError(f"unknown waiting law {text!r}; use exp:RATE or ml:ORDER")


def _parse_jump_law(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "exp":
            return ExponentialJumps(float(arg))
        if kind == "uniform":
            return UniformJumps(float(arg))
        if kind == "const":
            return DegenerateJumps(float(arg))
        if kind == "pareto":
            scale, _, exponent = arg.partition(",")
            return ParetoJumps(float(scale), float(exponent))
    except DomainError:
        raise
    except ValueError:
        raise DomainError(f"malformed jump law {text!r}") from None
    raise DomainError(
        f"unknown jump law {text!r}; use exp:RATE, uniform:UPPER, "
        "pareto:SCALE,EXPONENT or const:VALUE"
    )


def _parse_matrix(text: str) -> TransitionMatrix:
    try:
        rows = [
            [float(cell) for cell in row.split(",")]
            for row in text.split(";")
        ]
    except ValueError:
        raise DomainError(f"malformed transition matrix {text!r}") from None
    return TransitionMatrix(rows)


def _wait_law_from(args):
    """Resolve --waits LAW / --alpha ORDER into a waiting-time law."""
    if args.alpha is not None and args.waits is not None:
        raise DomainError("give either --alpha or --waits, not both")
    if args.alpha is not None:
        return MittagLeffler(args.alpha)
    if args.waits is not None:
        return _parse_wait_law(args.waits)
    raise DomainError("a waiting law is required: --alpha ORDER or --waits LAW")


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _write(path, chunks) -> None:
    """Write text chunks as they come: to the file at path, or to stdout
    when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


_BLOCK_ROWS = 4096
_SPEC = {"b": "%s", "i": "%d", "u": "%d", "f": "%.12g"}  # by dtype kind


def _csv_rows(data):
    """CSV lines of equal-length columns, one % of a row template per
    block of rows: floats to 12 significant digits, ints in full, bools
    as true/false."""
    row = ",".join(_SPEC[c.dtype.kind] for c in data) + "\n"
    cells = [np.where(c, "true", "false") if c.dtype == bool else c for c in data]
    for start in range(0, cells[0].size, _BLOCK_ROWS):
        block = [c[start : start + _BLOCK_ROWS].tolist() for c in cells]
        yield row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block)))


def _emit_table(args, columns, data) -> None:
    """Write named columns (arrays or scalars, broadcast to one length)."""
    data = np.broadcast_arrays(*(np.atleast_1d(c) for c in data))
    config = _config(args)
    if args.format == "json":
        rows = list(zip(*(c.tolist() for c in data)))
        doc = {"config": config, "columns": list(columns), "rows": rows}
        _write(args.out, [json.dumps(doc) + "\n"])
        return
    head = "# " + json.dumps(config, sort_keys=True) + "\n" + ",".join(columns) + "\n"
    _write(args.out, itertools.chain([head], _csv_rows(data)))


def _grid_from(args, single_flag: str, lo_flag: str, hi_flag: str):
    """One value from --<single>, or a closed grid from --<lo>/--<hi>."""
    single = getattr(args, single_flag)
    lo = getattr(args, lo_flag)
    hi = getattr(args, hi_flag)
    if single is not None:
        if lo is not None or hi is not None:
            raise DomainError(
                f"give --{single_flag} or the --{lo_flag}/--{hi_flag} pair, not both"
            )
        return np.array([single])
    if lo is None or hi is None:
        raise DomainError(
            f"give --{single_flag}, or both --{lo_flag} and --{hi_flag}"
        )
    for flag, value in ((lo_flag, lo), (hi_flag, hi)):
        if not math.isfinite(value):
            raise DomainError(f"--{flag} must be finite, got {value}")
    if args.points < 2 or hi <= lo:
        raise DomainError("a grid needs at least 2 points and an increasing range")
    return np.linspace(lo, hi, args.points)


def _span(args, hi_flag: str):
    """--points evenly spaced nodes on [0, --<hi>]."""
    hi = getattr(args, hi_flag)
    if args.points < 1:
        raise DomainError(f"--points must be at least 1, got {args.points}")
    if not 0.0 <= hi < math.inf:
        raise DomainError(f"--{hi_flag} must be non-negative and finite, got {hi}")
    return np.linspace(0.0, hi, args.points)


def _cmd_ml(args) -> int:
    zs = _grid_from(args, "z", "zmin", "zmax")
    _emit_table(args, ("z", "ml_value"), (zs, ml_values(args.alpha, zs)))
    return _EXIT_OK


def _cmd_pmf(args) -> int:
    law = _wait_law_from(args)
    table = counting_pmf(law, args.t, n_max=args.nmax, mass_target=args.mass)
    p = table.probabilities
    _emit_table(args, ("n", "probability"), (np.arange(p.size), p))
    return _EXIT_OK


def _cmd_epochs(args) -> int:
    law = _wait_law_from(args)
    rng = np.random.default_rng(_check_seed(args.seed))
    seq = generate_epochs(law, rng, args.tmax)
    _emit_table(args, ("n", "epoch"), (np.arange(1, seq.times.size + 1), seq.times))
    return _EXIT_OK


def _cmd_invert(args) -> int:
    law = _wait_law_from(args)
    if args.symbol == "density":
        sym = density_symbol(law)
    elif args.symbol == "survival":
        sym = survival_symbol(law)
    elif args.symbol == "kernel":
        sym = memory_kernel_symbol(law)
    elif args.symbol == "marginal":
        if args.v is None:
            raise DomainError("the marginal symbol needs --v")
        sym = marginal_symbol(law, args.v)
    else:
        if args.n is None:
            raise DomainError("the counting symbol needs --n")
        sym = counting_symbol(law, args.n)
    ts = _grid_from(args, "t", "tmin", "tmax")
    values = invert(sym, ts, method=args.method)
    _emit_table(args, ("t", "value"), (ts, values))
    return _EXIT_OK


def _cmd_analytic(args) -> int:
    kind = StatisticKind(args.stat)
    jumps = _parse_jump_law(args.jumps)
    waits = _wait_law_from(args)
    grid = _span(args, "umax")
    values = mixture_cdf(kind, jumps, waits, args.t, grid, tol=args.tol)
    _emit_table(args, ("u_or_w", "cdf_value"), (grid, values))
    return _EXIT_OK


def _cmd_chain(args) -> int:
    q = _parse_matrix(args.q)
    waits = _wait_law_from(args)
    ts = _span(args, "tmax")
    columns = ["t"] + [f"p_{args.start}{j}" for j in range(q.n_states)]
    marginals = semi_markov_marginal(q, args.start, waits, ts, tol=args.tol)
    _emit_table(args, columns, (ts, *marginals.T))
    return _EXIT_OK


def _cmd_solve(args) -> int:
    # the delta kernel is the renewal density of unit-rate exponential
    # waits, the power-law kernel of order a that of Mittag-Leffler waits
    if args.kernel == "powerlaw" and args.alpha is None:
        raise DomainError("the power-law kernel needs --alpha")
    waits = Exponential(1.0) if args.kernel == "delta" else MittagLeffler(args.alpha)
    sol = solve_relaxation(RelaxationProblem(waits, rate=args.c, t_max=args.tmax, step=args.h))
    _emit_table(args, ("t", "Q", "est_error"), (sol.times, sol.values, sol.est_error))
    return _EXIT_OK


def _simulation_plan(args) -> SimulationPlan:
    return SimulationPlan(
        kind=StatisticKind(args.stat),
        jump_law=_parse_jump_law(args.jumps),
        ie_law=_wait_law_from(args),
        t=args.t,
        n_paths=args.paths,
        master_seed=args.seed,
    )


def _cmd_simulate(args) -> int:
    samples = simulate_statistic(_simulation_plan(args))
    _emit_table(args, ("sample",), (samples,))
    return _EXIT_OK


def _cmd_compare(args) -> int:
    plan = _simulation_plan(args)
    samples = simulate_statistic(plan)

    def reference(u):
        return mixture_cdf(
            plan.kind, plan.jump_law, plan.ie_law, plan.t, u, tol=args.tol
        )

    report = ks_distance(build_ecdf(samples), reference)
    fields = {"d": report.statistic_d, "n": report.n,
              "threshold": report.threshold, "pass": report.passed}
    if args.format == "csv":
        _emit_table(args, tuple(fields), tuple(fields.values()))
    else:
        _write(args.out, [json.dumps({"config": _config(args), **fields}) + "\n"])
    return _EXIT_OK


def _add_common(sub, default_format: str) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format
    )
    sub.add_argument("--seed", type=int, default=0, help="64-bit master seed")


def _add_wait_flags(sub) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="shortcut for ml:ORDER")
    sub.add_argument("--waits", default=None, help="waiting law, exp:RATE or ml:ORDER")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctstat",
        description="renewal-stream statistics, memory-kernel relaxation, "
        "and Monte Carlo checks",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("ml", help="Mittag-Leffler values over a z grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--zmin", type=float, default=None)
    p.add_argument("--zmax", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_ml)

    p = subs.add_parser("pmf", help="event-count probabilities at a horizon")
    _add_wait_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--mass", type=float, default=None)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_pmf)

    p = subs.add_parser("epochs", help="one sampled event-time sequence")
    _add_wait_flags(p)
    p.add_argument("--tmax", type=float, required=True)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_epochs)

    p = subs.add_parser("invert", help="invert a named transform symbol")
    p.add_argument(
        "--symbol",
        choices=("density", "survival", "kernel", "marginal", "counting"),
        required=True,
    )
    _add_wait_flags(p)
    p.add_argument("--v", type=float, default=None, help="marginal weight")
    p.add_argument("--n", type=int, default=None, help="event count")
    p.add_argument("--method", choices=("stehfest", "talbot"), default="stehfest")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_invert)

    p = subs.add_parser("analytic", help="statistic cdf over a spatial grid")
    p.add_argument("--stat", choices=("sum", "max"), required=True)
    p.add_argument("--jumps", required=True)
    _add_wait_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--umax", type=float, required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_analytic)

    p = subs.add_parser("chain", help="chain occupancy marginals over time")
    p.add_argument("--q", required=True, help='rows ";"-separated, entries ","')
    p.add_argument("--start", type=int, default=0)
    _add_wait_flags(p)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_chain)

    p = subs.add_parser("solve", help="integrate a relaxation problem")
    p.add_argument("--kernel", choices=("delta", "powerlaw"), required=True)
    p.add_argument("--alpha", type=float, default=None, help="kernel order")
    p.add_argument("--c", type=float, required=True, help="relaxation coefficient")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--h", type=float, required=True, help="time step")
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("simulate", help="sample a statistic, one value per path")
    p.add_argument("--stat", choices=("sum", "max"), required=True)
    p.add_argument("--jumps", required=True)
    _add_wait_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    _add_common(p, "csv")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("compare", help="KS distance of simulation vs analytic cdf")
    p.add_argument("--stat", choices=("sum", "max"), required=True)
    p.add_argument("--jumps", required=True)
    _add_wait_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p, "json")
    p.set_defaults(func=_cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args returns a new namespace and leaves the parser unchanged,
    # so one instance serves every call.  set_defaults bound each _cmd_*
    # function at build time; those look up _emit_table and _write when
    # they run, so replacing either module name still takes effect.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return _EXIT_OK if not exc.code else _EXIT_DOMAIN
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"ctstat: domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except NumericError as exc:
        print(f"ctstat: numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"ctstat: i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
