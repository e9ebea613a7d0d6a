"""Command-line front door for the library.

Each subcommand maps to one module operation, evaluated over a flag
described parameter grid and written as CSV (default) or JSON.  The
first line of every CSV output is a ``#``-prefixed JSON object holding
the fully resolved configuration, so any result file can be traced back
to, and re-run from, the exact invocation that produced it.  Numeric
cells carry 12 significant digits.

Exit codes: 0 on success, 2 for domain errors (bad arguments, laws, or
flag combinations), 3 for numeric errors (a computation ran but missed
its accuracy contract), 4 for I/O failures.  Failure diagnostics go to
stderr.

Waiting-time laws are written ``exp:RATE`` or ``ml:ORDER``; the
``--alpha A`` shortcut stands for ``ml:A``.  Jump laws are written
``exp:RATE``, ``uniform:UPPER``, ``pareto:SCALE,EXPONENT`` or
``const:VALUE``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import DomainError, NumericError
from .laplace import (
    InversionConfig,
    counting_symbol,
    density_symbol,
    invert,
    marginal_symbol,
    memory_kernel_symbol,
    survival_symbol,
)
from .mc import SimulationPlan, _check_seed, build_ecdf, ks_distance, simulate_statistic
from .relax import DeltaKernel, PowerLawKernel, RelaxationProblem, solve_relaxation
from .renewal import Exponential, MittagLeffler, counting_pmf, generate_epochs
from .special import ml_one_param, ml_values
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


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit_table(args, columns, rows) -> None:
    config = _config(args)
    if args.format == "json":
        doc = {
            "config": config,
            "columns": list(columns),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        _write_text(args.out, json.dumps(doc) + "\n")
        return
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _write_text(args.out, "\n".join(lines) + "\n")


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


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
    if args.points < 2 or hi <= lo:
        raise DomainError("a grid needs at least 2 points and an increasing range")
    return np.linspace(lo, hi, args.points)


def _cmd_ml(args) -> int:
    zs = _grid_from(args, "z", "zmin", "zmax")
    values = np.empty_like(zs)
    positive = zs > 0.0
    # one vectorized call for z <= 0 (it rejects NaN); the series for z > 0
    values[~positive] = ml_values(args.alpha, zs[~positive])
    values[positive] = [ml_one_param(args.alpha, z).value for z in zs[positive]]
    _emit_table(args, ("z", "ml_value"), zip(zs.tolist(), values.tolist()))
    return _EXIT_OK


def _cmd_pmf(args) -> int:
    law = _wait_law_from(args)
    table = counting_pmf(law, args.t, n_max=args.nmax, mass_target=args.mass)
    rows = list(enumerate(table.probabilities))
    _emit_table(args, ("n", "probability"), rows)
    return _EXIT_OK


def _cmd_epochs(args) -> int:
    law = _wait_law_from(args)
    rng = np.random.default_rng(_check_seed(args.seed))
    seq = generate_epochs(law, rng, args.tmax)
    rows = list(enumerate(seq.times, start=1))
    _emit_table(args, ("n", "epoch"), rows)
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
    config = InversionConfig(method=args.method)
    ts = _grid_from(args, "t", "tmin", "tmax")
    rows = [(float(t), invert(sym, float(t), config)) for t in ts]
    _emit_table(args, ("t", "value"), rows)
    return _EXIT_OK


def _cmd_analytic(args) -> int:
    kind = StatisticKind(args.stat)
    jumps = _parse_jump_law(args.jumps)
    waits = _wait_law_from(args)
    grid = np.linspace(0.0, args.umax, args.points)
    values = mixture_cdf(kind, jumps, waits, args.t, grid, tol=args.tol)
    rows = list(zip(grid, values))
    _emit_table(args, ("u_or_w", "cdf_value"), rows)
    return _EXIT_OK


def _cmd_chain(args) -> int:
    q = _parse_matrix(args.q)
    waits = _wait_law_from(args)
    ts = np.linspace(0.0, args.tmax, args.points)
    columns = ["t"] + [f"p_{args.start}{j}" for j in range(q.n_states)]
    rows = [
        [float(t)]
        + list(semi_markov_marginal(q, args.start, waits, float(t), tol=args.tol))
        for t in ts
    ]
    _emit_table(args, columns, rows)
    return _EXIT_OK


def _cmd_solve(args) -> int:
    if args.kernel == "delta":
        kernel = DeltaKernel()
    else:
        if args.alpha is None:
            raise DomainError("the power-law kernel needs --alpha")
        kernel = PowerLawKernel(args.alpha)
    problem = RelaxationProblem(
        kernel=kernel, rate=args.c, t_max=args.tmax, step=args.h
    )
    solution = solve_relaxation(problem)
    rows = [
        (float(t), float(qv), solution.est_error)
        for t, qv in zip(solution.times, solution.values)
    ]
    _emit_table(args, ("t", "Q", "est_error"), rows)
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
    _emit_table(args, ("sample",), [(float(s),) for s in samples])
    return _EXIT_OK


def _cmd_compare(args) -> int:
    plan = _simulation_plan(args)
    samples = simulate_statistic(plan)

    def reference(u):
        return mixture_cdf(
            plan.kind, plan.jump_law, plan.ie_law, plan.t, u, tol=args.tol
        )

    report = ks_distance(build_ecdf(samples), reference)
    config = _config(args)
    if args.format == "csv":
        _emit_table(
            args,
            ("d", "n", "threshold", "pass"),
            [(report.statistic_d, report.n, report.threshold, report.passed)],
        )
        return _EXIT_OK
    doc = {
        "config": config,
        "d": report.statistic_d,
        "n": report.n,
        "threshold": report.threshold,
        "pass": report.passed,
    }
    _write_text(args.out, json.dumps(doc) + "\n")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
