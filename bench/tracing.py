"""Spans and counts around the calls into each slag-forge layer.

The tracer replaces the module attributes that callers look up (for
example `atiyah_hitchin.quad_adaptive` or `slag_curves.trace_zero_set`) with
wrappers; nothing under src/ changes.  Each wrapped call records a span
(name, start, end, parent) in memory, and some wrappers count work as well.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name): the binding sites callers read at call time
SPANS = (
    ("slag_curves", "elliptic_K_vec", "elliptic.K_vec"),
    ("slag_curves", "elliptic_E_vec", "elliptic.E_vec"),
    ("elliptic", "elliptic_data", "elliptic.elliptic_data"),
    ("atiyah_hitchin", "elliptic_data", "elliptic.elliptic_data"),
    ("checks", "elliptic_data", "elliptic.elliptic_data"),
    ("elliptic", "quad_adaptive", "elliptic.quad_adaptive"),
    ("atiyah_hitchin", "quad_adaptive", "elliptic.quad_adaptive"),
    ("multiplets", "quad_adaptive", "elliptic.quad_adaptive"),
    ("atiyah_hitchin", "pi_pair_from_zvx", "atiyah_hitchin.pi_pair"),
    ("atiyah_hitchin", "ah_from_spherical", "atiyah_hitchin.chart"),
    ("atiyah_hitchin", "ah_metric_UZ", "atiyah_hitchin.metric_UZ"),
    ("taub_nut", "tn_chart_spherical_to_holo", "taub_nut.chart"),
    ("taub_nut", "tn_metric_holo", "taub_nut.metric_holo"),
    ("moment_maps", "moment_ah_so2", "moment_maps.moment"),
    ("moment_maps", "moment_tn_u1", "moment_maps.moment"),
    ("moment_maps", "moment_tn_so2", "moment_maps.moment"),
    ("moment_maps", "verify_hamiltonian_tn", "moment_maps.verify_hamiltonian"),
    ("moment_maps", "verify_hamiltonian_ah", "moment_maps.verify_hamiltonian"),
    ("slag_curves", "trace_zero_set", "slag_curves.trace_zero_set"),
    ("slag_curves", "verify_slag", "slag_curves.verify_slag"),
    ("multiplets", "ah_In_contour_oracle", "multiplets.contour_oracle"),
    ("multiplets", "tn_Fxx_contour_oracle", "multiplets.contour_oracle"),
    ("cli", "write_trace_csv", "csvio.write_trace_csv"),
)
# scalar K is called per sample from many places: counted, not spanned
K_SITES = ("elliptic", "atiyah_hitchin", "slag_curves", "checks")
AH_TRACE_FAMILIES = ("ah_traces_theta_phi", "ah_traces_theta_k")


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []     # [name, parent, start, end, error]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._ah_family_depth = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for mod_name, attr, span in SPANS:
            self._patch(mod_name, attr, self._spanned(span, self._hooks(span)))
        for mod_name in K_SITES:
            self._patch(mod_name, "elliptic_K", self._counted("elliptic.K.calls"))
        for attr in AH_TRACE_FAMILIES:
            self._patch("slag_curves", attr, self._ah_family_counted)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, mod_name: str, attr: str, make) -> None:
        module = getattr(self.lib, mod_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _spanned(self, name: str, hooks):
        before, after = hooks

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    args = before(args)
                span_name = name
                if name == "slag_curves.verify_slag":
                    span_name = f"{name}.{args[1] if len(args) > 1 else kwargs['manifold']}"
                span = self._open(span_name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:  # recorded, then re-raised
                    self.spans[span][4] = type(exc).__name__
                    raise
                finally:
                    self._close(span)
                if after is not None:
                    after(span, args, result)
                return result
            return wrapper
        return make

    def _open(self, name: str) -> int:
        span = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, ""])
        self.stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.spans[span][3] = time.perf_counter()
        # a stall between opening a span and entering its try block leaves
        # that span on the stack; the enclosing span's close removes it
        if span in self.stack:
            del self.stack[self.stack.index(span):]

    def _counted(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _ah_family_counted(self, fn):
        def wrapper(*args, **kwargs):
            self._ah_family_depth += 1
            try:
                traces = fn(*args, **kwargs)
            finally:
                self._ah_family_depth -= 1
            self.counts["slag_curves.emitted_samples"] += sum(len(t.t) for t in traces)
            return traces
        return wrapper

    # ------------------------------------------------------- work counters

    def _hooks(self, span_name: str):
        """(before, after) for a span: before may swap in a counting callable
        argument; after counts work from the arguments and the result."""
        counts = self.counts
        if span_name in ("elliptic.K_vec", "elliptic.E_vec"):
            def after(span, args, result):
                counts[f"{span_name}.elements"] += int(np.size(result))
            return None, after
        if span_name == "elliptic.quad_adaptive":
            def before(args):
                f = args[0]

                def integrand(x):
                    counts["elliptic.quad_adaptive.integrand_evals"] += int(np.size(x))
                    return f(x)
                return (integrand,) + args[1:]
            return before, None
        if span_name == "slag_curves.trace_zero_set":
            def before(args):
                f = args[0].f

                def condition(x, y):
                    counts["slag_curves.trace_zero_set.condition_evals"] += 1
                    counts["slag_curves.trace_zero_set.condition_points"] += int(np.size(x))
                    return f(x, y)
                return (dataclasses.replace(args[0], f=condition),) + args[1:]

            def after(span, args, result):
                if self._ah_family_depth:
                    counts["slag_curves.polyline_vertices"] += sum(len(p) for p in result)
            return before, after
        if span_name == "slag_curves.verify_slag":
            def after(span, args, result):
                counts[f"{self.spans[span][0]}.samples"] += len(args[0].t)
            return None, after
        if span_name == "csvio.write_trace_csv":
            def after(span, args, result):
                counts["csvio.write_trace_csv.bytes"] += os.path.getsize(args[0])
            return None, after
        return None, None

    # ------------------------------------------------------------ reports

    def summary(self) -> dict:
        """calls, total and self seconds and the durations of every span name."""
        starts = np.array([s[2] for s in self.spans])
        ends = np.array([s[3] for s in self.spans])
        ends = np.where(ends > 0.0, ends, starts)     # never closed: zero length
        dur = ends - starts
        child = np.zeros(len(dur))
        parents = np.array([s[1] for s in self.spans], dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        by_name = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        out = {}
        for name, idx in by_name.items():
            out[name] = {"calls": len(idx), "total_s": float(dur[idx].sum()),
                         "self_s": float(self_time[idx].sum()), "durations": dur[idx],
                         "errors": Counter(self.spans[i][4] for i in idx if self.spans[i][4])}
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the traced pass, by BENCHMARK.json name."""
    spans = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0),
             "errors": Counter()}

    def get(name):
        return spans.get(name, empty)

    m: dict[str, float] = {}
    for name in ("elliptic.K_vec", "elliptic.E_vec"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.elements"] = counts[f"{name}.elements"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    m["elliptic.K.calls"] = counts["elliptic.K.calls"]
    for name in ("elliptic.elliptic_data", "atiyah_hitchin.chart",
                 "atiyah_hitchin.metric_UZ", "taub_nut.chart", "taub_nut.metric_holo",
                 "moment_maps.moment", "moment_maps.verify_hamiltonian",
                 "multiplets.contour_oracle"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    quad = get("elliptic.quad_adaptive")
    m["elliptic.quad_adaptive.calls"] = quad["calls"]
    m["elliptic.quad_adaptive.self_s"] = quad["self_s"]
    m["elliptic.quad_adaptive.integrand_evals"] = counts["elliptic.quad_adaptive.integrand_evals"]

    pi = get("atiyah_hitchin.pi_pair")
    d = pi["durations"]
    m["atiyah_hitchin.pi_pair.calls"] = pi["calls"]
    m["atiyah_hitchin.pi_pair.self_s"] = pi["self_s"]
    m["atiyah_hitchin.pi_pair.p50_us"] = float(np.percentile(d, 50)) * 1e6 if len(d) else 0.0
    m["atiyah_hitchin.pi_pair.p99_us"] = float(np.percentile(d, 99)) * 1e6 if len(d) else 0.0
    m["atiyah_hitchin.pi_pair.max_ms"] = float(d.max()) * 1e3 if len(d) else 0.0
    m["atiyah_hitchin.pi_pair.stalls"] = pi["errors"].get("Stall", 0)

    tz = get("slag_curves.trace_zero_set")
    m["slag_curves.trace_zero_set.calls"] = tz["calls"]
    m["slag_curves.trace_zero_set.self_s"] = tz["self_s"]
    for key in ("condition_evals", "condition_points"):
        m[f"slag_curves.trace_zero_set.{key}"] = counts[f"slag_curves.trace_zero_set.{key}"]
    for manifold in ("ah", "tn"):
        name = f"slag_curves.verify_slag.{manifold}"
        samples = counts[f"{name}.samples"]
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
        m[f"{name}.us_per_sample"] = get(name)["total_s"] / samples * 1e6 if samples else 0.0
    vertices = counts["slag_curves.polyline_vertices"]
    m["slag_curves.sample_yield"] = (counts["slag_curves.emitted_samples"] / vertices
                                     if vertices else 0.0)
    csv = get("csvio.write_trace_csv")
    m["csvio.write_trace_csv.calls"] = csv["calls"]
    m["csvio.write_trace_csv.self_s"] = csv["self_s"]
    m["csvio.write_trace_csv.bytes"] = counts["csvio.write_trace_csv.bytes"]
    return m
