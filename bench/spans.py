"""Spans around calls into the public functions of each kenergy layer.

The tracer replaces a function by a wrapper in every loaded kenergy module
that binds it, so a call is recorded wherever its caller looks the name up
(``right_substitute`` is bound in ``kenergy.pairing`` and ``kenergy.energy``,
``energy_via_formula`` in ``kenergy.energy`` and ``kenergy.asymptotics``).
Nothing inside the package is edited: the wrappers live here.

Each call records one span: name, start, end, the index of the span that was
open when it started (its parent), and a few counts taken from its
arguments or result.  Spans stay in memory until ``write`` is called at the
end of the run.  A layer's self time is its span minus the child spans it
covers; ``aggregate`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, attribute, span name).  Span names are the per-layer metric
# prefixes; the module is where the function is defined.
TARGETS = (
    ("kenergy.exactpoly", "right_substitute", "exactpoly.right_substitute"),
    ("kenergy.exactpoly", "lie_derivative", "exactpoly.lie_derivative"),
    ("kenergy.pairing", "log_norm_ratio", "pairing.log_norm_ratio"),
    ("kenergy.pairing", "log_fs_norm_sq", "pairing.log_fs_norm_sq"),
    ("kenergy.energy", "energy_via_formula", "energy.energy_via_formula"),
    ("kenergy.energy", "directional_derivative", "energy.directional_derivative"),
    ("kenergy.energy", "minimize_energy", "energy.minimize"),
    ("kenergy.numeric", "energy_quadrature", "numeric.energy_quadrature"),
    ("kenergy.numeric", "metric_density_log", "numeric.metric_density_log"),
    ("kenergy.numeric", "volume_and_chern", "numeric.volume_and_chern"),
    ("kenergy.asymptotics", "stability_scan", "asymptotics.stability_scan"),
    ("kenergy.asymptotics", "slope_fit", "asymptotics.slope_fit"),
    ("kenergy.catalog", "build_instance", "catalog.build_instance"),
    ("kenergy.catalog", "load_instance", "catalog.load_instance"),
    ("kenergy.chern", "derive_jet_top_chern", "chern.derive_jet_top_chern"),
    ("kenergy.cli", "main", "cli.main"),
)

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("exactpoly.right_substitute.calls", "count"),
    ("exactpoly.right_substitute.busy_s", "s"),
    ("exactpoly.right_substitute.terms_out", "count"),
    ("exactpoly.lie_derivative.busy_s", "s"),
    ("pairing.log_norm_ratio.calls", "count"),
    ("pairing.log_norm_ratio.busy_s", "s"),
    ("pairing.log_norm_ratio.reused", "count"),
    ("pairing.log_fs_norm_sq.busy_s", "s"),
    ("pairing.group_element.rejected", "count"),
    ("energy.energy_via_formula.calls", "count"),
    ("energy.energy_via_formula.busy_s", "s"),
    ("energy.directional_derivative.calls", "count"),
    ("energy.directional_derivative.busy_s", "s"),
    ("energy.minimize.iterations", "count"),
    ("energy.minimize.backtracks", "count"),
    ("numeric.energy_quadrature.calls", "count"),
    ("numeric.energy_quadrature.busy_s", "s"),
    ("numeric.metric_density_log.calls", "count"),
    ("numeric.metric_density_log.points", "count"),
    ("numeric.metric_density_log.busy_s", "s"),
    ("numeric.volume_and_chern.busy_s", "s"),
    ("asymptotics.stability_scan.busy_s", "s"),
    ("asymptotics.stability_scan.vectors_per_s", "1/s"),
    ("asymptotics.slope_fit.busy_s", "s"),
    ("catalog.build_instance.busy_s", "s"),
    ("catalog.load_instance.busy_s", "s"),
    ("chern.derive_jet_top_chern.busy_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s"),
    ("trace.overhead_s", "s"),
)


def _counts(name, args, result):
    """Counts a span carries besides its times."""
    if name == "exactpoly.right_substitute":
        return {"terms_out": result.num_terms()}
    if name == "numeric.metric_density_log":
        return {"points": int(np.size(args[2]))}
    if name == "asymptotics.stability_scan":
        return {"vectors": result.n_evaluated}
    if name == "energy.minimize":
        return {"accepted": len(result.energies) - 1}
    return {}


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording, not wrapping."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts, error]
        self.enabled = True
        self._stack = []

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, {}, False]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            span[4] = _counts(name, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target wherever a loaded kenergy module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "kenergy" or key.startswith("kenergy."))]
        for defining, attr, name in TARGETS:
            original = getattr(sys.modules[defining], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        pairing = sys.modules["kenergy.pairing"]
        group = pairing.GroupElement
        original = group.__dict__["from_matrix"]
        group.from_matrix = classmethod(
            self._wrap("pairing.group_element", original.__func__))

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent",
                                                "counts", "error"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def aggregate(spans, import_s, overhead_s):
    """Per-layer metrics from the spans of one traced run."""
    inclusive = {}
    self_time = {}
    calls = {}
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for idx, (name, start, end, parent, counts, error) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(idx)
    totals = {}
    for idx, (name, start, end, parent, counts, error) in enumerate(spans):
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[idx]
        calls[name] = calls.get(name, 0) + 1
        for key, value in counts.items():
            totals[(name, key)] = totals.get((name, key), 0) + value

    reused = 0
    rejected = 0
    iterations = 0
    backtracks = 0
    for idx, (name, start, end, parent, counts, error) in enumerate(spans):
        if name == "pairing.log_norm_ratio" and not _has_descendant(
                spans, children, idx, "exactpoly.right_substitute"):
            reused += 1
        elif name == "pairing.group_element" and error:
            rejected += 1
        elif name == "energy.minimize" and not error:
            # The benchmark caps every descent call at one iteration.  After
            # the initial formula evaluation, each further one is a
            # line-search trial; trials that were not accepted are backtracks.
            iterations += 1
            kids = [spans[c][0] for c in children[idx]]
            trials = kids.count("energy.energy_via_formula") - 1
            backtracks += trials - counts["accepted"]

    scan_time = inclusive.get("asymptotics.stability_scan", 0.0)
    scan_vectors = totals.get(("asymptotics.stability_scan", "vectors"), 0)
    values = {
        "exactpoly.right_substitute.calls": calls.get("exactpoly.right_substitute", 0),
        "exactpoly.right_substitute.terms_out": totals.get(
            ("exactpoly.right_substitute", "terms_out"), 0),
        "pairing.log_norm_ratio.calls": calls.get("pairing.log_norm_ratio", 0),
        "pairing.log_norm_ratio.reused": reused,
        "pairing.group_element.rejected": rejected,
        "energy.energy_via_formula.calls": calls.get("energy.energy_via_formula", 0),
        "energy.directional_derivative.calls": calls.get(
            "energy.directional_derivative", 0),
        "energy.minimize.iterations": iterations,
        "energy.minimize.backtracks": backtracks,
        "numeric.energy_quadrature.calls": calls.get("numeric.energy_quadrature", 0),
        "numeric.metric_density_log.calls": calls.get("numeric.metric_density_log", 0),
        "numeric.metric_density_log.points": totals.get(
            ("numeric.metric_density_log", "points"), 0),
        "asymptotics.stability_scan.vectors_per_s": (
            scan_vectors / scan_time if scan_time > 0 else 0.0),
        "cli.import_s": import_s,
        "trace.overhead_s": overhead_s,
    }
    for metric, unit in PER_LAYER:
        if metric.endswith(".busy_s"):
            values[metric] = self_time.get(metric[: -len(".busy_s")], 0.0)
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}


def _has_descendant(spans, children, idx, name):
    stack = list(children[idx])
    while stack:
        child = stack.pop()
        if spans[child][0] == name:
            return True
        stack.extend(children[child])
    return False
