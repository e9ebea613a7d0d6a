"""Per-layer tracing of ctstat, installed from outside the package.

Every binding of every public function of the seven layer modules is
replaced by a wrapper, including the names other modules re-import
(``ctstat.stats.counting_pmf``, ``ctstat.cli.mixture_cdf``, ...), and
the ``fftconvolve`` that ``ctstat.stats`` imports.  A call that enters
a layer from another layer (or from the benchmark) opens a span; calls
inside the same layer run straight through, so a span's self time is
its duration minus the spans it caused.  Counters are taken at the
same boundaries.  Spans stay in memory and are written by the caller
at the end.  ``uninstall`` restores every binding, so untraced passes
run the unmodified package.

A public name that no longer exists, or whose arguments a counter can
no longer read, marks the metrics that depend on it as absent instead
of failing the run.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

LAYERS = ("cli", "special", "renewal", "laplace", "stats", "relax", "mc")
BENCH = len(LAYERS)  # the benchmark's own frames: driving and checking
_NAMES = LAYERS + ("bench",)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    if isinstance(x, (list, tuple)):
        return len(x)
    return 1


class Tracer:
    """Collects spans, self times and counters for one traced run."""

    def __init__(self, span_cap: int = 20_000):
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.request_id = -1
        self._stack = []
        self._next_id = 0
        self._saved = []
        self.missing = set()  # (layer, name) that could not be wrapped
        self.broken = set()  # counter groups whose arguments changed shape
        self.reset()

    def reset(self) -> None:
        n = len(_NAMES)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.errors = [0] * n
        self.counters = {}
        self.table_keys = set()

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- spans -------------------------------------------------------

    def _open(self, layer: int):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [layer, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame, name: str) -> float:
        end = perf_counter()
        self._stack.pop()
        layer, start, child = frame[0], frame[1], frame[2]
        dur = end - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if layer != BENCH:
            self.calls[layer] += 1
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[3], frame[4], self.request_id, _NAMES[layer], name, start, end))
        else:
            self.spans_dropped += 1
        return dur

    def bench(self, name: str, fn, *args):
        """Run fn(*args) as benchmark-owned time (driving or checking)."""
        frame = self._open(BENCH)
        try:
            return fn(*args)
        finally:
            self._close(frame, name)

    # -- wrapping ----------------------------------------------------

    def _wrap(self, layer: int, name: str, fn, always, entry):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if always is not None:
                    tracer._count(always, args, kwargs, result, 0.0)
                return result
            frame = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                dur = tracer._close(frame, name)
            if always is not None:
                tracer._count(always, args, kwargs, result, dur)
            if entry is not None:
                tracer._count(entry, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, hook, args, kwargs, result, dur) -> None:
        group, fn = hook
        if group in self.broken:
            return
        try:
            fn(self, args, kwargs, result, dur)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.broken.add(group)

    def install(self) -> None:
        """Wrap every public function binding found in ctstat modules."""
        if self._saved:
            return
        pkg = sys.modules["ctstat"]
        targets = {}  # id(original) -> wrapper
        for idx, layer in enumerate(LAYERS):
            mod = sys.modules.get(f"ctstat.{layer}")
            if mod is None:
                self.missing.add((layer, "*"))
                continue
            names = getattr(mod, "__all__", None)
            if names is None:  # special has no __all__
                names = [n for n in getattr(pkg, "__all__", ())
                         if getattr(getattr(pkg, n, None), "__module__", None) == mod.__name__]
            for name in names:
                obj = getattr(mod, name, None)
                if obj is None or isinstance(obj, type) or not callable(obj):
                    continue
                always, entry = _HOOKS.get((layer, name), (None, None))
                targets[id(obj)] = self._wrap(idx, name, obj, always, entry)
        stats = sys.modules.get("ctstat.stats")
        fft = getattr(stats, "fftconvolve", None)
        if fft is not None:
            targets[id(fft)] = self._wrap(LAYERS.index("stats"), "fftconvolve", fft,
                                          ("stats.fft", _fft), None)
        for (layer, name) in _HOOKS:
            mod = sys.modules.get(f"ctstat.{layer}")
            if mod is None or not callable(getattr(mod, name, None)):
                self.missing.add((layer, name))
        if fft is None:
            self.missing.add(("stats", "fftconvolve"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ctstat" or mod_name.startswith("ctstat.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- results -----------------------------------------------------

    def absent(self) -> set:
        """Metric names that could not be measured on this code."""
        out = set()
        for layer, name in self.missing:
            if name == "*":
                out.update(m for m in self.layer_metrics() if m.startswith(layer + "."))
            else:
                out.update(_DEPENDS.get((layer, name), ()))
        for group in self.broken:
            out.update(_GROUP_METRICS.get(group, ()))
        return out

    def span_chain(self, request_id: int, chain=("cli", "stats", "renewal", "laplace")) -> bool:
        """True when some span of the request descends through ``chain``."""
        mine = {s[0]: s for s in self.spans if s[2] == request_id}
        for span in mine.values():
            path = []
            node = span
            while node is not None:
                path.append(node[3])
                node = mine.get(node[1])
            layers = [p for p in reversed(path) if p != "bench"]
            if tuple(layers[: len(chain)]) == chain:
                return True
        return False

    def layer_metrics(self, passes: int = 1) -> dict:
        """Per-pass values of everything collected since ``reset`` over
        ``passes`` passes of the same request list."""
        c = {k: v / passes for k, v in self.counters.items()}
        out = {}
        for idx, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[idx] / passes
            out[f"{layer}.self_s"] = self.self_s[idx] / passes
        for layer in ("laplace", "special", "stats"):
            out[f"{layer}.errors"] = self.errors[LAYERS.index(layer)] / passes
        out["bench.self_s"] = self.self_s[BENCH] / passes
        out["mc.paths"] = c.get("mc.paths", 0.0)
        sim_s = c.get("mc.sim_s", 0.0)
        out["mc.paths_per_s"] = out["mc.paths"] / sim_s if sim_s > 0 else 0.0
        compares = c.get("mc.compares", 0.0)
        out["mc.ks_pass_ratio"] = c.get("mc.ks_passes", 0.0) / compares if compares else 0.0
        out["renewal.draws"] = c.get("renewal.draws", 0.0)
        tables = c.get("renewal.tables", 0.0)
        out["renewal.tables"] = tables
        out["renewal.pmf_entries"] = c.get("renewal.pmf_entries", 0.0)
        # every pass builds the same tables, so distinct keys are per pass
        out["renewal.table_reuse"] = tables / len(self.table_keys) if self.table_keys else 0.0
        out["renewal.bad_tables"] = c.get("renewal.bad_tables", 0.0)
        for key in ("laplace.points", "special.points", "stats.cdf_points", "stats.fft_calls",
                    "stats.fft_len", "relax.nodes", "relax.memory_terms", "cli.bytes_out"):
            out[key] = c.get(key, 0.0)
        return out


# -- counters at the layer boundaries ---------------------------------


def _draws(tr, args, kwargs, result, dur):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    tr.add("renewal.draws", 1 if size is None else int(size))


def _table(tr, args, kwargs, result, dur):
    probs = result.probabilities
    total = float(probs.sum())
    tr.add("renewal.tables", 1)
    tr.add("renewal.pmf_entries", _size(probs))
    tr.table_keys.add((repr(args[0]), float(_arg(args, kwargs, 1, "t")), repr(args[2:]),
                       repr(sorted(kwargs.items()))))
    if total > 1.0 + 1e-9 or abs(1.0 - total - float(result.tail_bound)) > 1e-6:
        tr.add("renewal.bad_tables", 1)


def _inverted(tr, args, kwargs, result, dur):
    tr.add("laplace.points", _size(_arg(args, kwargs, 1, "t")))


def _points(key, index, name):
    def hook(tr, args, kwargs, result, dur):
        tr.add(key, _size(_arg(args, kwargs, index, name)))
    return hook


def _one(key):
    def hook(tr, args, kwargs, result, dur):
        tr.add(key, 1)
    return hook


def _fft(tr, args, kwargs, result, dur):
    tr.add("stats.fft_calls", 1)
    tr.add("stats.fft_len", _size(result))


def _relax(tr, args, kwargs, result, dur):
    n = _size(result.times) - 1
    if hasattr(_arg(args, kwargs, 0, "problem").kernel, "order"):
        # the sweep runs at h and at h/2; step k sums k-1 history terms
        tr.add("relax.nodes", (n + 1) + (2 * n + 1))
        tr.add("relax.memory_terms", n * (n - 1) / 2 + (2 * n) * (2 * n - 1) / 2)
    else:
        tr.add("relax.nodes", n + 1)


def _simulated(index, name):
    def hook(tr, args, kwargs, result, dur):
        plan_or_paths = _arg(args, kwargs, index, name)
        tr.add("mc.paths", getattr(plan_or_paths, "n_paths", plan_or_paths))
        tr.add("mc.sim_s", dur)
    return hook


def _ks(tr, args, kwargs, result, dur):
    tr.add("mc.compares", 1)
    tr.add("mc.ks_passes", 1 if result.passed else 0)


# (layer, name) -> (hook on every call, hook on layer entry only);
# a hook is (counter group, function)
_HOOKS = {
    ("renewal", "sample_waiting_time"): (("renewal.draws", _draws), None),
    ("renewal", "counting_pmf"): (("renewal.tables", _table), None),
    ("laplace", "invert"): (("laplace.points", _inverted), None),
    ("special", "ml_one_param"): (None, ("special.points", _one("special.points"))),
    ("special", "ml_values"): (None, ("special.points", _points("special.points", 1, "z"))),
    ("special", "ml_survival"): (None, ("special.points", _points("special.points", 1, "t"))),
    ("stats", "mixture_cdf"): (None, ("stats.cdf_points", _points("stats.cdf_points", 4, "u"))),
    ("stats", "max_cdf"): (None, ("stats.cdf_points", _points("stats.cdf_points", 3, "w"))),
    ("stats", "sum_cdf_series"): (None, ("stats.cdf_points", _points("stats.cdf_points", 3, "u"))),
    ("stats", "semi_markov_marginal"): (None, ("stats.cdf_points", _one("stats.cdf_points"))),
    ("relax", "solve_relaxation"): (("relax.nodes", _relax), None),
    ("mc", "simulate_statistic"): (("mc.paths", _simulated(0, "plan")), None),
    ("mc", "simulate_chain"): (("mc.paths", _simulated(4, "n_paths")), None),
    ("mc", "ks_distance"): (("mc.ks_pass_ratio", _ks), None),
}

_GROUP_METRICS = {
    "renewal.draws": ("renewal.draws",),
    "renewal.tables": ("renewal.tables", "renewal.pmf_entries", "renewal.table_reuse",
                       "renewal.bad_tables"),
    "laplace.points": ("laplace.points",),
    "special.points": ("special.points",),
    "stats.cdf_points": ("stats.cdf_points",),
    "stats.fft": ("stats.fft_calls", "stats.fft_len"),
    "relax.nodes": ("relax.nodes", "relax.memory_terms"),
    "mc.paths": ("mc.paths", "mc.paths_per_s"),
    "mc.ks_pass_ratio": ("mc.ks_pass_ratio",),
}

# a counter is absent when the function it reads is gone
_DEPENDS = {
    ("renewal", "sample_waiting_time"): _GROUP_METRICS["renewal.draws"],
    ("renewal", "counting_pmf"): _GROUP_METRICS["renewal.tables"],
    ("laplace", "invert"): _GROUP_METRICS["laplace.points"],
    ("stats", "fftconvolve"): _GROUP_METRICS["stats.fft"],
    ("relax", "solve_relaxation"): _GROUP_METRICS["relax.nodes"],
    ("mc", "ks_distance"): _GROUP_METRICS["mc.ks_pass_ratio"],
}
