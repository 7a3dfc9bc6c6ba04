"""Traced mode: spans and counters at the program's module boundaries.

Tracer.install() replaces every public function and public method of the
layer modules (expr, system, analysis, reduction, minimality, cli) with a
wrapper that records a span, in every module namespace of the package that
binds it, so names one module imports from another (integrate_segments as
seen from reduction) are wrapped too. scipy's solve_ivp, as seen from
system, gets a counting wrapper that reads nfev and the accepted steps.
uninstall() puts the originals back.

A span's self time is its duration minus the time its child spans cover.
Spans of every name are aggregated in memory; spans that last at least
KEEP_S are also kept one by one (a span's parent lasts at least as long,
so the kept spans form a tree) and written to the trace file at the end
of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("expr", "system", "analysis", "reduction", "minimality", "cli")
PACKAGE = "nash_realize"

# span names whose activity other counters are attributed to
_ESTIMATORS = ("analysis.estimate_response_trdeg",
               "analysis.estimate_reachable_trdeg",
               "analysis.estimate_trdeg")
_CHART_FLOW = "reduction.LocalRealization.terminal_state"
_SOLVE = "reduction.ImplicitMap.solve"
_REL_VALUE = "analysis.PolynomialRelation.value"
_FLOW = "system.integrate_segments"
_SCOPED = _ESTIMATORS + (_CHART_FLOW, _SOLVE)

KEEP_S = 1e-3


def _targets():
    """(owner, attribute, span name, kind) for every public function and
    public method of the layer modules."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, f"{layer}.{name}", "function"))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if isinstance(member, classmethod):
                        out.append((obj, attr, span, "classmethod"))
                    elif isinstance(member, staticmethod):
                        out.append((obj, attr, span, "staticmethod"))
                    elif inspect.isfunction(member):
                        out.append((obj, attr, span, "function"))
    return out


class Tracer:
    """Span and counter collector for one benchmark run."""

    def __init__(self):
        self._targets = _targets()
        self._agg: dict[str, list] = {}      # name -> [calls, total, self]
        self._exc: dict[tuple, int] = {}     # (name, exception) -> count
        self.counters: dict[str, float] = {}
        self._active = {name: 0 for name in _SCOPED}
        self._stack: list[float] = []        # child time per open span
        self._ids: list[int] = []            # id per open span
        self._next_id = 0
        self.spans: list[tuple] = []
        self.pass_index = 0
        self._patches: list[tuple] = []      # (owner, attr, original)
        for _owner, _attr, span, _kind in self._targets:
            self._agg[span] = [0, 0.0, 0.0]
        self.reset()

    # ---------------------------------------------------------- counting

    def reset(self):
        """Zero every aggregate and counter (one pass starts)."""
        for a in self._agg.values():
            a[0], a[1], a[2] = 0, 0.0, 0.0
        self._exc.clear()
        for key in ("segments", "rhs_evals", "rk_steps", "chart_rhs_evals",
                    "estimator_flows", "estimator_flows_done",
                    "flows.analysis.estimate_response_trdeg",
                    "flows.analysis.estimate_reachable_trdeg",
                    "relation_values_in_solve"):
            self.counters[key] = 0

    def _enter(self):
        self._stack.append(0.0)
        self._next_id += 1
        self._ids.append(self._next_id)

    def _exit(self, name, t0, agg):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        sid = self._ids.pop()
        if self._stack:
            self._stack[-1] += dt
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - child
        if dt >= KEEP_S:
            parent = self._ids[-1] if self._ids else 0
            self.spans.append((self.pass_index, sid, parent, name, t0, dt))

    def _span_wrapper(self, fn, name):
        agg = self._agg[name]
        enter, leave = self._enter, self._exit
        clock = time.perf_counter
        exc = self._exc

        def wrapper(*args, **kwargs):
            enter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                key = (name, type(e).__name__)
                exc[key] = exc.get(key, 0) + 1
                raise
            finally:
                leave(name, t0, agg)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scoped_wrapper(self, fn, name):
        """Span wrapper that also keeps an activity count for `name`, so
        work done beneath it can be attributed to it."""
        inner = self._span_wrapper(fn, name)
        active = self._active

        def wrapper(*args, **kwargs):
            active[name] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                active[name] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _flow_wrapper(self, fn, name):
        """integrate_segments: attributes each flow to the estimators it
        runs under, and counts those that complete."""
        inner = self._span_wrapper(fn, name)
        active = self._active
        counters = self.counters

        def wrapper(*args, **kwargs):
            under = [e for e in _ESTIMATORS if active[e]]
            if not under:
                return inner(*args, **kwargs)
            counters["estimator_flows"] += 1
            for e in under:
                key = "flows." + e
                if key in counters:
                    counters[key] += 1
            result = inner(*args, **kwargs)
            counters["estimator_flows_done"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _value_wrapper(self, fn, name):
        """PolynomialRelation.value: counts evaluations inside Newton
        solves."""
        inner = self._span_wrapper(fn, name)
        active = self._active
        counters = self.counters

        def wrapper(*args, **kwargs):
            if active[_SOLVE]:
                counters["relation_values_in_solve"] += 1
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _solve_ivp_wrapper(self, fn):
        counters = self.counters
        active = self._active

        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counters["segments"] += 1
            counters["rhs_evals"] += sol.nfev
            counters["rk_steps"] += max(0, sol.t.size - 1)
            if active[_CHART_FLOW]:
                counters["chart_rhs_evals"] += sol.nfev
            return sol

        solve_ivp.__wrapped__ = fn
        return solve_ivp

    # ---------------------------------------------------------- patching

    def install(self):
        """Wrap every target and rebind every alias of it in the package,
        so no call into a layer reaches an unwrapped original."""
        if self._patches:
            return
        originals = {}
        for owner, attr, span, kind in self._targets:
            member = vars(owner)[attr]
            fn = member.__func__ if kind != "function" else member
            if span == _FLOW:
                w = self._flow_wrapper(fn, span)
            elif span == _REL_VALUE:
                w = self._value_wrapper(fn, span)
            elif span in _SCOPED:
                w = self._scoped_wrapper(fn, span)
            else:
                w = self._span_wrapper(fn, span)
            originals[id(fn)] = w
            if kind == "classmethod":
                w = classmethod(w)
            elif kind == "staticmethod":
                w = staticmethod(w)
            self._patches.append((owner, attr, member))
            setattr(owner, attr, w)
        system = sys.modules[f"{PACKAGE}.system"]
        foreign = system.solve_ivp
        originals[id(foreign)] = self._solve_ivp_wrapper(foreign)
        # aliases: every package module attribute bound to a target
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and not inspect.isclass(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def span(self, name):
        """A benchmark-level span (one operation)."""
        agg = self._agg.setdefault(name, [0, 0.0, 0.0])
        self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, t0, agg)

    # ----------------------------------------------------------- reports

    def _calls(self, name):
        return self._agg[name][0]

    def _self(self, *names):
        return sum(self._agg[n][2] for n in names)

    def _exc_count(self, name, *types):
        return sum(self._exc.get((name, t), 0) for t in types)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the pass since the last reset()."""
        c = self.counters
        cli = [n for n in self._agg if n.startswith("cli.")]
        resp, reach = _ESTIMATORS[0], _ESTIMATORS[1]
        solves = self._calls(_SOLVE)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "expr.eval_point.calls": self._calls("expr.NashExpr.eval_point"),
            "expr.eval_point.self_s": self._self("expr.NashExpr.eval_point"),
            "expr.lie_derivative.calls": self._calls("expr.lie_derivative"),
            "expr.lie_derivative.self_s": self._self("expr.lie_derivative"),
            "system.flow.calls": self._calls(_FLOW),
            "system.flow.self_s": self._self("system.flow", _FLOW),
            "system.segments": c["segments"],
            "system.rhs_evals": c["rhs_evals"],
            "system.rk_steps": c["rk_steps"],
            "system.domain_exits": self._exc_count(_FLOW, "DomainExit"),
            "system.blowups": self._exc_count(_FLOW, "BlowUp"),
            "system.respond.calls":
                self._calls("system.SystemOracle.respond"),
            "analysis.estimate_response_trdeg.calls": self._calls(resp),
            "analysis.estimate_response_trdeg.self_s": self._self(resp),
            "analysis.estimate_response_trdeg.flows_per_call":
                ratio(c["flows." + resp], self._calls(resp)),
            "analysis.estimate_reachable_trdeg.calls": self._calls(reach),
            "analysis.estimate_reachable_trdeg.self_s": self._self(reach),
            "analysis.estimate_reachable_trdeg.flows_per_call":
                ratio(c["flows." + reach], self._calls(reach)),
            "analysis.estimate_trdeg.calls":
                self._calls("analysis.estimate_trdeg"),
            "analysis.estimate_trdeg.self_s":
                self._self("analysis.estimate_trdeg"),
            "analysis.generate_obs_algebra.self_s":
                self._self("analysis.generate_obs_algebra"),
            "analysis.fit_relation.calls":
                self._calls("analysis.fit_relation"),
            "analysis.fit_relation.self_s":
                self._self("analysis.fit_relation"),
            "analysis.flow_yield": ratio(c["estimator_flows_done"],
                                         c["estimator_flows"]),
            "reduction.ImplicitMap.solve.calls": solves,
            "reduction.ImplicitMap.solve.self_s": self._self(_SOLVE),
            "reduction.newton_evals_per_solve":
                ratio(c["relation_values_in_solve"], solves),
            "reduction.newton_failures": self._exc_count(
                _SOLVE, "NewtonDiverged", "DerivativeVanished"),
            "reduction.chart_flow.calls": self._calls(_CHART_FLOW),
            "reduction.chart_flow.self_s": self._self(_CHART_FLOW),
            "reduction.chart_rhs_evals": c["chart_rhs_evals"],
            "reduction.probe_radius.self_s":
                self._self("reduction.probe_radius"),
            "reduction.verify_local_realization.self_s":
                self._self("reduction.verify_local_realization"),
            "reduction.resymbolize.self_s":
                self._self("reduction.resymbolize"),
            "minimality.check_minimality.self_s":
                self._self("minimality.check_minimality"),
            "minimality.construct_isomorphism.self_s":
                self._self("minimality.construct_isomorphism"),
            "minimality.verify_isomorphism.self_s":
                self._self("minimality.verify_isomorphism"),
            "cli.main.self_s": self._self(*cli),
        }

    def aggregates(self) -> dict:
        """Every span name seen this pass: calls, total and self time."""
        out = {name: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
               for name, a in self._agg.items() if a[0]}
        for (name, exc), count in self._exc.items():
            out.setdefault(name, {})[f"raised.{exc}"] = count
        return out


def write_trace(path: str, header: dict, passes: list, spans: list):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = dict(header)
    data["passes"] = passes
    data["spans"] = [{"pass": p, "id": i, "parent": par, "name": n,
                      "start": t0, "duration_s": dt}
                     for p, i, par, n, t0, dt in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
