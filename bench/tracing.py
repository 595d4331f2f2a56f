"""Spans and counters around sel_lab's public functions, from the outside.

Tracer.install() replaces every public function of each sel_lab module,
wherever a sel_lab module holds a reference to it (cross-module imports
included), with a wrapper that records a span: name, start, end, parent
span and item id.  The scipy entry points each module imported
(`solve_ivp`, `quad`) are wrapped per importing module, so scipy time is
attributed to the module that called it.  Tracer.restore() puts every
original back.  Spans live in flat arrays and are written out at the end.

Spans nest by call: a layer's self time is its span time minus the time
of the spans it caused.  Compiled expressions are far too hot for spans;
compile_scalar hands out counting closures instead, and expression busy
time is computed as calls x a microbenchmarked cost per call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
import timeit
from array import array
from collections import Counter

LAYERS = ("expr", "numerics", "karamata", "profile", "radial", "bifurcation", "cli", "ioutil")
SCIPY_ENTRY_POINTS = ("solve_ivp", "quad")
# Called per number or per AST node: counted, not spanned.
COUNT_ONLY = {"expr.evaluate", "ioutil.fmt"}
# Recursive over the expression tree: only the outermost call is a span.
RECURSIVE = {"expr.evaluate", "expr.differentiate", "expr.substitute", "expr.to_source"}
# Public methods that are layer boundaries.
METHODS = (("karamata", "Antiderivative", "__call__", "karamata.antiderivative"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_id = array("i")
        self.counters: Counter = Counter()
        self.compiled: list = []  # (ast, [calls]) per compile_scalar result
        self.item = -1
        self._stack = [-1]
        self._patches: list = []

    # -- span recording ---------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None, before=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        starts, ends, parents, items, ids = (self.start, self.end, self.parent,
                                             self.item_id, self.name_id)
        active = [0]  # recursion depth of a RECURSIVE function
        recursive = name in RECURSIVE
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(idx)
            active[0] += recursive
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[0] -= recursive
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def _count_wrapper(self, name: str, fn):
        counters, active = self.counters, [0]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            counters[name + "_calls"] += 1
            active[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[0] -= 1

        return wrapped

    # -- per-function hooks ---------------------------------------------------

    def _hooks(self, name: str) -> dict:
        counters = self.counters
        if name == "expr.compile_scalar":
            compiled = self.compiled

            def compile_counted(fn):
                @functools.wraps(fn)
                def wrapped(ast):
                    inner = fn(ast)
                    calls = [0]
                    compiled.append((ast, calls))

                    def counted(t):
                        calls[0] += 1
                        return inner(t)

                    return counted

                return wrapped

            return {"outer": compile_counted}
        if name == "numerics.find_root_monotone":
            def before(args):
                fn = args[0]

                def counted(x):
                    counters["numerics.root_fevals"] += 1
                    return fn(x)

                return (counted,) + tuple(args[1:])

            return {"before": before}
        if name == "ioutil.atomic_write_text":
            def after(result, args):
                counters["ioutil.bytes"] += len(args[1].encode("utf-8"))

            return {"after": after}
        if name == "radial.boundary_blowup":
            def after(result, args):
                counters["radial.blowup_levels"] += len(result.metadata.get("n_levels", ()))

            return {"after": after}
        if name in ("radial.picard_gradient_entire", "radial.solve_system"):
            key = "radial.picard_iterations" if "picard" in name else "radial.system_iterations"

            def after(result, args):
                counters[key] += int(result.metadata["iterations"])

            return {"after": after}
        if name == "bifurcation.solve_lef":
            from sel_lab.bifurcation import N_PROBES

            def after(result, args):
                probes = len(result.metadata.get("probe_table", ()))
                counters["bifurcation.lef_probes"] += probes
                counters["bifurcation.lef_full_audits"] += probes == N_PROBES

            return {"after": after}
        return {}

    def _scipy_wrapper(self, layer: str, name: str, fn):
        counters = self.counters
        if name == "solve_ivp":
            def after(sol, args):
                counters[f"{layer}.ode_rhs_calls"] += int(sol.nfev)
                counters[f"{layer}.ode_steps"] += int(sol.t.size) - 1
        else:
            def after(result, args):
                if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], dict):
                    counters[f"{layer}.quadpack_evals"] += int(result[2].get("neval", 0))
        return self._span_wrapper(f"{layer}.{name}", fn, after=after)

    # -- install / restore ------------------------------------------------

    def _patch(self, holder, attr: str, new) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> None:
        package = importlib.import_module("sel_lab")
        modules = {layer: importlib.import_module(f"sel_lab.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._count_wrapper(name, obj)
                else:
                    hooks = self._hooks(name)
                    inner = hooks["outer"](obj) if "outer" in hooks else obj
                    wrapper = self._span_wrapper(name, inner, hooks.get("after"),
                                                 hooks.get("before"))
                for holder in holders:
                    if getattr(holder, attr, None) is obj:
                        self._patch(holder, attr, wrapper)
            for attr in SCIPY_ENTRY_POINTS:
                if attr in vars(mod):
                    self._patch(mod, attr, self._scipy_wrapper(layer, attr, vars(mod)[attr]))
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self._span_wrapper(name, getattr(cls, method)))

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the duration of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(out)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += out[idx]
        return [d - c for d, c in zip(out, child)]

    def inside(self, idx: int, ancestor: str) -> bool:
        """True when span idx runs (transitively) inside a span named ancestor."""
        target = self._name_ids.get(ancestor)
        parent = self.parent[idx]
        while parent >= 0:
            if self.name_id[parent] == target:
                return True
            parent = self.parent[parent]
        return False

    def expression_cost_ns(self, repeats: int = 2000) -> tuple[float, float]:
        """Microbenchmark each compiled expression the run used.

        Returns (call-weighted mean ns per call, total busy seconds).  Each
        expression is timed at the first of a few probe points where it
        evaluates; expressions undefined at all of them keep the mean cost.
        """
        from sel_lab.expr import compile_scalar, to_source

        by_source: dict[str, list] = {}
        for ast, calls in self.compiled:
            if calls[0]:
                entry = by_source.setdefault(to_source(ast), [ast, 0])
                entry[1] += calls[0]
        costs = []
        for ast, calls in by_source.values():
            fn = compile_scalar(ast)
            for t in (1.0, 0.5, 2.0, 0.1, 10.0):
                try:
                    fn(t)
                except (ArithmeticError, ValueError):
                    continue
                seconds = min(timeit.repeat(lambda: fn(t), number=repeats, repeat=3))
                costs.append((calls, seconds / repeats * 1e9))
                break
        total_calls = sum(calls for _, calls in by_source.values())
        if not costs:
            return 0.0, 0.0
        timed_calls = sum(c for c, _ in costs)
        mean_ns = sum(c * ns for c, ns in costs) / timed_calls
        return mean_ns, total_calls * mean_ns * 1e-9

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,name,start,end,parent,item\n")
            for idx in range(len(self.start)):
                handle.write(f"{idx},{self.names[self.name_id[idx]]},{self.start[idx]!r},"
                             f"{self.end[idx]!r},{self.parent[idx]},{self.item_id[idx]}\n")


# (metric, kind, span names): counts of spans or their summed self time.
SPAN_METRICS = (
    ("expr.parse_calls", "count", ("expr.parse_expression",)),
    ("expr.compile_calls", "count", ("expr.compile_scalar",)),
    ("numerics.quad_calls", "count", ("numerics.quad",)),
    ("numerics.quad_s", "self", ("numerics.quad",)),
    ("numerics.classify_calls", "count", ("numerics.classify_tail_integral",
                                          "numerics.classify_origin_integral")),
    ("numerics.classify_s", "self", ("numerics.classify_tail_integral",
                                     "numerics.classify_origin_integral")),
    ("numerics.root_calls", "count", ("numerics.find_root_monotone",)),
    ("numerics.root_s", "self", ("numerics.find_root_monotone",)),
    ("numerics.ivp_calls", "count", ("numerics.integrate_radial_ivp",)),
    ("numerics.ivp_s", "self", ("numerics.integrate_radial_ivp",)),
    ("karamata.analyze_calls", "count", ("karamata.analyze_nonlinearity",
                                         "karamata.analyze_singular_term")),
    ("karamata.analyze_s", "self", ("karamata.analyze_nonlinearity",
                                    "karamata.analyze_singular_term")),
    ("karamata.antiderivative_calls", "count", ("karamata.antiderivative",)),
    ("karamata.antiderivative_s", "self", ("karamata.antiderivative",)),
    ("karamata.ko_s", "self", ("karamata.keller_osserman",
                               "karamata.necessary_condition_entire")),
    ("karamata.ell_s", "self", ("karamata.ell_limits",)),
    ("profile.build_calls", "count", ("profile.build_profile",)),
    ("profile.build_s", "self", ("profile.build_profile",)),
    ("radial.blowup_calls", "count", ("radial.boundary_blowup",)),
    ("radial.blowup_s", "self", ("radial.boundary_blowup",)),
    ("radial.rate_s", "self", ("radial.measure_boundary_rate",)),
    ("radial.picard_calls", "count", ("radial.picard_gradient_entire",)),
    ("radial.picard_s", "self", ("radial.picard_gradient_entire",)),
    ("radial.system_calls", "count", ("radial.solve_system",)),
    ("radial.system_s", "self", ("radial.solve_system",)),
    ("bifurcation.lef_calls", "count", ("bifurcation.solve_lef",)),
    ("bifurcation.lef_s", "self", ("bifurcation.solve_lef",)),
    ("bifurcation.eigen_calls", "count", ("bifurcation.lambda1_ball",)),
    ("bifurcation.eigen_s", "self", ("bifurcation.lambda1_ball",)),
    ("cli.parse_s", "self", ("cli.parse_config",)),
    ("ioutil.writes", "count", ("ioutil.atomic_write_text",)),
    ("ioutil.write_s", "self", ("ioutil.atomic_write_text",)),
)
ODE_LAYERS = ("numerics", "profile", "radial", "bifurcation")
COUNTER_METRICS = (
    "expr.fast_calls", "expr.evaluate_calls", "numerics.quadpack_evals",
    "numerics.root_fevals", "radial.blowup_levels", "radial.picard_iterations",
    "radial.system_iterations", "bifurcation.lef_probes", "bifurcation.lef_full_audits",
    "ioutil.bytes",
    *(f"{layer}.{what}" for layer in ODE_LAYERS for what in ("ode_rhs_calls", "ode_steps")),
)
COMPUTED_METRICS = (
    "expr.fast_call_ns", "expr.busy_s", "bifurcation.lef_verdict_yield", "cli.self_s",
    *(f"{layer}.ode_solves" for layer in ODE_LAYERS),
    *(f"{layer}.ode_s" for layer in ODE_LAYERS),
    *(f"{layer}.self_share" for layer in LAYERS),
    "trace.overhead_frac", "trace.items", "trace.spans",
)
PER_LAYER_METRICS = (tuple(m for m, _, _ in SPAN_METRICS) + COUNTER_METRICS
                     + COMPUTED_METRICS)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith(("_share", "_frac", "_yield")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, traced_wall: float, overhead_frac: float,
                  items: int) -> dict:
    """Every per-layer metric from the spans and counters of a traced phase.

    `traced_wall` is the wall time of the traced items; `overhead_frac`
    compares the traced and untraced passes.
    """
    self_t = tracer.self_times()
    names = [tracer.names[i] for i in tracer.name_id]
    count_by, self_by = Counter(names), Counter()
    for name, s in zip(names, self_t):
        self_by[name] += s
    out = {}
    for metric, kind, spans in SPAN_METRICS:
        source = count_by if kind == "count" else self_by
        out[metric] = float(sum(source[s] for s in spans))
    fast_calls = sum(calls[0] for _, calls in tracer.compiled)
    tracer.counters["expr.fast_calls"] = fast_calls
    for metric in COUNTER_METRICS:
        out[metric] = float(tracer.counters[metric])
    ns, busy = tracer.expression_cost_ns()
    out["expr.fast_call_ns"] = ns
    out["expr.busy_s"] = busy
    for layer in ODE_LAYERS:
        out[f"{layer}.ode_solves"] = float(count_by[f"{layer}.solve_ivp"])
        out[f"{layer}.ode_s"] = float(self_by[f"{layer}.solve_ivp"])
    lef_solves = sum(1 for idx, name in enumerate(names)
                     if name == "bifurcation.solve_ivp"
                     and tracer.inside(idx, "bifurcation.solve_lef"))
    out["bifurcation.lef_verdict_yield"] = (out["bifurcation.lef_calls"] / lef_solves
                                            if lef_solves else 0.0)
    layer_self = Counter()
    for name, s in self_by.items():
        layer_self[name.split(".", 1)[0]] += s
    out["cli.self_s"] = float(layer_self["cli"])
    for layer in LAYERS:
        share = layer_self[layer] + (busy if layer == "expr" else 0.0)
        out[f"{layer}.self_share"] = share / traced_wall if traced_wall > 0 else 0.0
    out["trace.overhead_frac"] = overhead_frac
    out["trace.items"] = float(items)
    out["trace.spans"] = float(len(names))
    return out
