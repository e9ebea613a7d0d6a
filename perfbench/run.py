"""ctstat benchmark: three closed-loop workloads with oracle checks.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1              # every workload, full report
    python3 perfbench/run.py --workload all --seed 1 --repeat 10  # steadiness self-check

One client sends one request at a time, in process, through
``ctstat.cli.main`` (and ``ctstat.simulate_chain``, which has no
subcommand), waits for the output, and checks it against an oracle
that does not call ctstat.  A run repeats the workload's request list
(one "pass") ``seconds // PASS_S`` times, which fills about
``--seconds`` seconds at the baseline.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics from the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the working directory; the
run stops with exit code 2 when it is not there.  Result records and
spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the single-threaded baseline, and multithreaded dot
# products of a few 10^4 elements time erratically on small machines
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (standard library only)

SETUP_RUNS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
OUT_DIR = HERE / "out"


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="with more than 1, run each workload this many times on seeds "
                   "seed, seed+1, ... in fresh processes and report the spread of every metric")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    if args.setup_child and args.workload == "all":
        p.error("a setup child runs one workload")
    return args


def _source_root() -> Path:
    """The checkout root: the working directory, which must hold src/ctstat."""
    root = Path.cwd()
    if not (root / "src" / "ctstat" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ctstat sources under {root / 'src'}")
    return root


def _import_ctstat(root: Path):
    sys.path.insert(0, str(root / "src"))
    import ctstat
    import ctstat.cli  # noqa: F401

    origin = Path(ctstat.__file__).resolve()
    if root / "src" not in origin.parents:
        raise ImportError(f"ctstat was imported from {origin}, not from {root / 'src'}")
    return ctstat


def _benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- one request ------------------------------------------------------


def _call(req, grid):
    """Run one request; returns (exit code or None, output, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if req.argv is not None:
            rc = sys.modules["ctstat.cli"].main(list(req.argv))
            return rc, out.getvalue(), err.getvalue()
        ct = sys.modules["ctstat"]
        p = req.params
        result = ct.simulate_chain(ct.TransitionMatrix(p["q"]), p["start"],
                                   ct.MittagLeffler(p["alpha"]), grid, p["paths"], p["seed"])
        return 0, result, err.getvalue()


def _drive(req, grid):
    """Time one request; exceptions are results, not crashes."""
    t0 = time.perf_counter()
    try:
        rc, output, err = _call(req, grid)
    except Exception as exc:  # the program under test raised: record it
        rc, output, err = None, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, output, err


def _verdict(check, rc, output, err):
    if rc is None:
        return f"raised {err}"
    if rc != 0:
        first = err.strip().splitlines()[0] if err.strip() else ""
        return f"exit {rc}: {first}"
    return check(output)


class Run:
    """State of one workload run: requests, oracles and measurements."""

    def __init__(self, workload, seed, tracer=None):
        import checks
        import numpy as np

        self.workload = workload
        self.requests = workloads.requests(workload, seed)
        t0 = time.perf_counter()
        self.checks = [checks.prepare(r) for r in self.requests]
        self.oracle_s = time.perf_counter() - t0
        self.grids = [
            np.linspace(0.0, r.params["tmax"], r.params["points"]) if r.argv is None else None
            for r in self.requests
        ]
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # request index -> [detail, count]

    def one_pass(self, traced: bool):
        """Send every request once.  Returns (sum of latencies, pass wall)."""
        tr = self.tracer if traced else None
        start = time.perf_counter()
        total = 0.0
        for i, (req, check) in enumerate(zip(self.requests, self.checks)):
            if tr is not None:
                tr.request_id = i
                dt, rc, output, err = tr.bench("drive", _drive, req, self.grids[i])
                bad = tr.bench("check", _verdict, check, rc, output, err)
                if isinstance(output, str):
                    tr.add("cli.bytes_out", len(output.encode()))
            else:
                dt, rc, output, err = _drive(req, self.grids[i])
                bad = _verdict(check, rc, output, err)
                self.latencies.append(dt)
            total += dt
            self.attempted += 1
            if bad is not None:
                self.failed += 1
                self.failures.setdefault(i, [bad, 0])[1] += 1
        return total, time.perf_counter() - start

    def family_latency(self):
        """Median untraced latency summed per request family."""
        by_family = {}
        per_pass = len(self.requests)
        for i, req in enumerate(self.requests):
            mine = self.latencies[i::per_pass]
            if mine:
                by_family[req.family] = by_family.get(req.family, 0.0) + statistics.median(mine)
        return {k: round(v, 5) for k, v in sorted(by_family.items())}

    def failure_lines(self):
        return [f"  {self.requests[i].family:<16} x{n}  {detail}\n      {self.requests[i].label()}"
                for i, (detail, n) in sorted(self.failures.items())]


def _defect_probe(seed, tracing):
    """Send the requests of ``workloads.defect_probe`` once, under a tracer
    of their own.  They lie past the orders the measured passes use, where
    the count layer is known to be wrong, so they count in neither
    ``failed`` nor ``correct``: their failures and bad count tables are
    reported as per-layer metrics instead.  Returns (values, report
    lines, names of probe metrics that could not be measured)."""
    import checks

    reqs = workloads.defect_probe(seed)
    oracles = [checks.prepare(r) for r in reqs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdicts = [_verdict(check, *_drive(req, None)[1:]) for req, check in zip(reqs, oracles)]
    finally:
        tracer.uninstall()
    lines = [f"  {r.family:<16} {v}\n      {r.label()}" for r, v in zip(reqs, verdicts) if v is not None]
    values = {"defect_probe.failed": len(lines),
              "defect_probe.bad_tables": tracer.layer_metrics()["renewal.bad_tables"]}
    head = (f"  known-defect probe (ROADMAP item 1; not counted in correct/failed): "
            f"{len(lines)} of {len(reqs)} requests fail")
    absent = {"defect_probe.bad_tables"} if "renewal.bad_tables" in tracer.absent() else set()
    return values, [head] + lines, absent


def _loop(run: Run, passes: int, traced: bool):
    """Run the passes; with tracing, untraced and traced passes alternate
    and each kind gets half of them."""
    walls = {False: [], True: []}
    kinds = [False, True] * max(1, passes // 2) if traced else [False] * passes
    for kind in kinds:
        if kind:
            run.tracer.install()
        try:
            walls[kind].append(run.one_pass(kind))
        finally:
            if kind:
                run.tracer.uninstall()
    return walls


# -- metrics ----------------------------------------------------------


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _setup_times(workload, seed, root):
    """Fresh interpreters: import ctstat plus the first request, median."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload,
             "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _setup_child(args) -> int:
    req = workloads.setup_request(args.workload, args.seed)
    root = Path.cwd()
    t0 = time.perf_counter()
    _import_ctstat(root)
    _, rc, _, err = _drive(req, None)
    dt = time.perf_counter() - t0
    if rc != 0:
        print(f"setup request failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": dt}))
    return 0


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """OpenBLAS thread count from the loaded library, else the environment."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return None


def _record(args, root, seconds, run: Run, passes):
    import mpmath
    import numpy
    import scipy

    src = root / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "git_commit": _git_commit(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": _blas_threads(),
        "src_lines": lines,
        "requests_per_pass": len(run.requests),
        "passes": passes,
        "oracle_s": round(run.oracle_s, 4),
        "family_latency_s": run.family_latency(),
    }


def _run_workload(args) -> int:
    try:
        root = _source_root()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    setup = [] if args.trace else _setup_times(args.workload, args.seed, root)
    _import_ctstat(root)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    run = Run(args.workload, args.seed, tracer)

    # fill the imports and lazy caches of this process before timing
    warm = workloads.setup_request(args.workload, args.seed)
    _drive(warm, None)

    chain_ok = None
    if tracer is not None:
        probe = workloads.span_probe()
        tracer.install()
        tracer.request_id = -2
        tracer.bench("drive", _drive, probe, None)
        tracer.uninstall()
        chain_ok = tracer.span_chain(-2)
        tracer.reset()

    passes = max(MIN_PASSES, int(seconds // workloads.PASS_S[args.workload]))
    walls = _loop(run, passes, bool(args.trace))
    plain = [w[0] for w in walls[False]]
    record = _record(args, root, seconds, run, {"untraced": len(plain), "traced": len(walls[True])})
    record["pass_walls_s"] = [round(w, 4) for w in plain]
    report = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]

    if args.trace:
        n_traced = len(walls[True])
        values = tracer.layer_metrics(n_traced)
        traced_wall = statistics.median(w[1] for w in walls[True])
        values["trace.overhead_s"] = statistics.median(w[0] for w in walls[True]) - statistics.median(plain)
        values["trace.wall_s"] = traced_wall
        accounted = sum(tracer.self_s) / n_traced
        values["trace.accounted_ratio"] = accounted / traced_wall
        values["trace.span_chain_ok"] = 1.0 if chain_ok else 0.0
        probe_lines, probe_absent = [], set()
        if args.workload == "fractional":
            probe_values, probe_lines, probe_absent = _defect_probe(args.seed, tracing)
            values.update(probe_values)
        absent = sorted(tracer.absent() | probe_absent)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
                   for name in units}
        record["absent_metrics"] = absent
        record["spans_dropped"] = tracer.spans_dropped
        report.append(f"  traced passes {n_traced}, per-pass values; "
                      f"layer self times + bench = {accounted:.3f} s of {traced_wall:.3f} s traced wall")
        for name, m in metrics.items():
            note = "  (absent: its function is gone)" if name in absent else ""
            report.append(f"  {name:<24} {m['value']:>14.6g} {m['unit']}{note}")
        if not chain_ok:
            report.append("  span self-check FAILED: no cli -> stats -> renewal -> laplace chain")
        report.extend(probe_lines)
        _write_spans(args, tracer)
    else:
        tail, pct = _tail(run.latencies)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "latency_p50_s": statistics.median(run.latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": peak_mb,
        }
        samples = {"setup_s": len(setup), "wall_s": len(plain), "latency_p50_s": len(run.latencies),
                   "latency_tail_s": len(run.latencies), "peak_rss_mb": 1}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
        record["latency_tail_percentile"] = pct
        for name, m in metrics.items():
            extra = f"  p{pct:.1f}, {TAIL_BEYOND} requests beyond" if name == "latency_tail_s" else ""
            report.append(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<5} n={samples[name]}{extra}")
        report.append(f"  {'error_rate':<16} {run.failed / run.attempted:>12.6g} ratio n={run.attempted}")

    report.append(f"  failures: {run.failed} of {run.attempted} requests")
    report.extend(run.failure_lines())
    record["failures"] = {run.requests[i].label(): d for i, (d, _) in sorted(run.failures.items())}
    report.append("  record " + json.dumps({k: v for k, v in record.items() if k != "failures"}))
    print("\n".join(report))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    _write_json(args, {"record": record, "result": result})
    print(json.dumps(result), flush=True)
    return 0


def _out_name(args, suffix):
    return OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def _write_json(args, doc):
    OUT_DIR.mkdir(exist_ok=True)
    _out_name(args, ".json").write_text(json.dumps(doc, indent=1) + "\n")


def _write_spans(args, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    with open(_out_name(args, "-spans.jsonl"), "w", encoding="utf-8") as fh:
        for sid, parent, req, layer, name, start, end in tracer.spans:
            fh.write(json.dumps([sid, parent, req, layer, name, round(start, 7), round(end, 7)]) + "\n")


# -- several runs -----------------------------------------------------


def _child(workload, seed, seconds, trace, root):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-600:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, statistics.median(values)


def _repeat(args) -> int:
    try:
        root = _source_root()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    steady = True
    for workload in names:
        results = []
        for rep in range(args.repeat):
            seed = args.seed + rep
            lines, result = _child(workload, seed, args.seconds, args.trace, root)
            results.append(result)
            if args.repeat == 1:
                print("\n".join(lines))
                print(json.dumps(result))
            else:
                print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
        if args.repeat < 4:
            continue
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            spread, med = _spread(values)
            half = len(values) // 2
            first, second = statistics.median(values[:half]), statistics.median(values[half:])
            drift = (second - first) / first if first else 0.0
            bound = bounds.get(name, {}).get("bound")
            rows[name] = {"median": med, "spread": spread, "halves_drift": drift, "bound": bound}
            verdict = ""
            if bound is not None:
                gated = name != "setup_s"
                if gated and spread > bound:
                    verdict = "WIDER THAN BOUND"
                    steady = False
                elif gated and spread > bound / 3:
                    verdict = "above bound/3"
                    steady = False
                else:
                    verdict = "ok"
                if abs(drift) > bound:
                    verdict += ", halves differ by more than the bound"
                    steady = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {workload:<12} {name:<24} median {med:>11.5g} {unit:<5} "
                  f"spread {spread:7.4f} halves {drift:+7.4f} bound {bound} n={len(values)} {verdict}")
        summary[workload] = rows
    if summary:
        OUT_DIR.mkdir(exist_ok=True)
        name = f"steadiness-{args.workload}-seed{args.seed}x{args.repeat}-trace{args.trace}.json"
        (OUT_DIR / name).write_text(json.dumps(summary, indent=1) + "\n")
        print("steady" if steady else "NOT steady")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_child:
        return _setup_child(args)
    if args.workload == "all" or args.repeat > 1:
        return _repeat(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
