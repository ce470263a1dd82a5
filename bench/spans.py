"""In-memory spans around every public function of lrbounds, for the traced run.

Tracer.install() wraps each function a layer module exports (its __all__, or
its public functions when it has none) at every binding: the module global,
each importer's `from ... import` binding (bounds.g, analysis.composition_table,
...) and the package re-export.  Each call records a span (function, start,
end, parent span) in flat arrays; self time is a span's duration minus that
of its direct children.  Counters are read from return values and from the
lru cache of composition_table, and never raise: a function that a later
version removes or reshapes reports zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("compositions", "analysis", "bounds", "oracle", "metrics", "cli")
FUNCTIONS = {
    "compositions": ("composition_table", "multinomial", "max_ell_partial_sum"),
    "analysis": ("f", "f_gradient", "g", "g_prime", "g_second", "certify_schur",
                 "certify_convexity", "certify_monotonicity_g", "lipschitz_g"),
    "bounds": ("zero_rate_threshold", "p_star_w", "tilted_mean", "mgf", "solve_lambda_star",
               "lower_bound_rate", "eb_upper_bound_rate", "comparison_ry_binary4",
               "comparison_ry_qary3", "plotkin_constants"),
    "oracle": ("estimate_threshold_mc", "random_expurgated_code", "check_list_recoverable"),
    "metrics": ("average_radius_ell",),
}
COUNTERS = ("ct_misses", "ct_rows", "lam_solves", "lam_iterations", "lam_residual_max",
            "kept", "distinct")


def _exported(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items() if not n.startswith("_")
                 and inspect.isfunction(v) and v.__module__ == mod.__name__]
    return list(names)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._ct = None  # composition_table's lru cache, read for misses
        self._ct_base = self._ct_seen = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        fid = self._id(name)
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        fid = self._id(name)
        fn_ids, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fn_ids)
            fn_ids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result

        return traced

    # --- counters read from return values and caches ----------------------

    def _observe_table(self, result) -> None:
        misses = self._ct.cache_info().misses
        if misses > self._ct_seen:
            self._ct_seen = misses
            self.counters["ct_rows"] += len(result[0])

    def _observe_lambda(self, result) -> None:
        iterations, residual = result.iterations, result.residual
        self.counters["lam_solves"] += 1
        self.counters["lam_iterations"] += iterations
        self.counters["lam_residual_max"] = max(self.counters["lam_residual_max"], residual)

    def _observe_expurgation(self, result) -> None:
        report = result[1]
        kept, distinct = report.achieved_size, report.distinct_size
        self.counters["kept"] += kept
        self.counters["distinct"] += distinct

    def install(self, package: str = "lrbounds") -> None:
        """Wrap every exported function at every binding."""
        observers = {
            "bounds.solve_lambda_star": self._observe_lambda,
            "oracle.random_expurgated_code": self._observe_expurgation,
        }
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            for attr in _exported(mod):
                obj = getattr(mod, attr, None)
                if obj is None or isinstance(obj, type) or not callable(obj):
                    continue
                name = f"{layer}.{attr}"
                if name == "compositions.composition_table" and hasattr(obj, "cache_info"):
                    self._ct = obj
                    self._ct_base = self._ct_seen = obj.cache_info().misses
                    observers[name] = self._observe_table
                wrappers[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def arrays(self) -> dict:
        counters = dict(self.counters)
        if self._ct is not None:
            counters["ct_misses"] = self._ct.cache_info().misses - self._ct_base
        return {"names": self.names, "fn": list(self.fn), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end), "counters": counters}

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.arrays(), **extra}, fh)

    def summary(self) -> dict:
        return summarize(self.arrays())


def summarize(spans: dict) -> dict:
    """Calls and self time per function name, plus the counters."""
    import numpy as np

    names = spans["names"]
    fn = np.asarray(spans["fn"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["end"], dtype=np.float64) - np.asarray(spans["start"], dtype=np.float64)
    child = np.zeros(len(fn))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    calls = np.bincount(fn, minlength=len(names))
    self_s = np.bincount(fn, weights=self_t, minlength=len(names))
    out = {"functions": {n: [int(calls[i]), float(self_s[i])] for i, n in enumerate(names)},
           "counters": dict(spans["counters"])}
    # p_star_w calls made from inside eb_upper_bound_rate
    ids = {n: i for i, n in enumerate(names)}
    under = 0
    if "bounds.p_star_w" in ids and "bounds.eb_upper_bound_rate" in ids:
        kids = (fn == ids["bounds.p_star_w"]) & has_parent
        under = int((fn[parent[kids]] == ids["bounds.eb_upper_bound_rate"]).sum())
    out["counters"]["p_star_w_under_eb"] = under
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum of several summaries (the per-process traces of cli-cold)."""
    functions: dict[str, list] = {}
    counters: dict[str, float] = {}
    for s in summaries:
        for n, (c, t) in s["functions"].items():
            acc = functions.setdefault(n, [0, 0.0])
            acc[0] += c
            acc[1] += t
        for k, v in s["counters"].items():
            if k == "lam_residual_max":
                counters[k] = max(counters.get(k, 0.0), v)
            else:
                counters[k] = counters.get(k, 0) + v
    return {"functions": functions, "counters": counters}


def merge_files(paths: list[str], process_s: list[float]) -> dict:
    """Merge the span files of traced cli processes; a missing file counts zero."""
    summaries, import_s = [], []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            continue
        summaries.append(summarize(spans))
        import_s.append(spans.get("import_s", 0.0))
    out = merge(summaries)
    out["counters"]["cli_import_s"] = sum(import_s) / len(import_s) if import_s else 0.0
    out["counters"]["cli_process_s"] = sum(process_s) / len(process_s) if process_s else 0.0
    return out


def layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics by name, each {"value", "unit"}."""
    fns = summary["functions"]
    ctr = summary["counters"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [v for n, v in fns.items() if n.startswith(layer + ".")]
        m[f"{layer}.calls"] = (sum(c for c, _ in mine), "count")
        m[f"{layer}.self_s"] = (sum(t for _, t in mine), "s")
    for layer, names in FUNCTIONS.items():
        for name in names:
            calls, self_s = fns.get(f"{layer}.{name}", (0, 0.0))
            m[f"{layer}.{name}.calls"] = (calls, "count")
            m[f"{layer}.{name}.self_s"] = (self_s, "s")
    solves = ctr.get("lam_solves", 0)
    eb_calls = fns.get("bounds.eb_upper_bound_rate", (0, 0.0))[0]
    distinct = ctr.get("distinct", 0)
    m["compositions.composition_table.misses"] = (ctr.get("ct_misses", 0), "count")
    m["compositions.composition_table.rows_built"] = (ctr.get("ct_rows", 0), "count")
    m["bounds.solve_lambda_star.iterations"] = (ctr.get("lam_iterations", 0), "count")
    m["bounds.solve_lambda_star.iterations_mean"] = (
        ctr.get("lam_iterations", 0) / solves if solves else 0.0, "count")
    m["bounds.solve_lambda_star.residual_max"] = (ctr.get("lam_residual_max", 0.0), "ratio")
    m["bounds.p_star_w.calls_per_eb"] = (
        ctr.get("p_star_w_under_eb", 0) / eb_calls if eb_calls else 0.0, "ratio")
    m["oracle.random_expurgated_code.kept_ratio"] = (
        ctr.get("kept", 0) / distinct if distinct else 0.0, "ratio")
    m["cli.import_s"] = (ctr.get("cli_import_s", 0.0), "s")
    m["cli.process_s"] = (ctr.get("cli_process_s", 0.0), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
