"""Per-layer tracing for the benchmark, applied from outside the package.

While `Tracer.run_item` runs an item, each traced sio_lab function is
replaced, in every sio_lab module namespace that refers to it (and
`PointCloud.distances_from` on its class), with a wrapper that records one
span per call: id, layer name, start and end (perf_counter_ns), parent span,
item id and a per-call count. Calls inside a module resolve through that
module's globals, so they are traced too. The wrappers return the wrapped
function's result unchanged, and the originals are restored after the item.

Spans are kept in memory and turned into per-layer metrics at the end: a
span's self time is its duration minus the part of its interval that its
child spans cover (children running in worker threads may overlap, so the
covered part is the union of their intervals, not the sum).
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from sio_lab import metric as _metric


def _result_attr(attr):
    return lambda args, kwargs, result: getattr(result, attr)


def _pairs(args, kwargs, result):
    return result.size


def _elements(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    return np.size(values)


def _ok(args, kwargs, result):
    return 1 if result.ok else 0


def _eps(args, kwargs, result):
    # pairing(k, m, f, g, eps, workers=1)
    return kwargs["eps"] if "eps" in kwargs else args[4]


# (span name, defining module, attribute, per-call count or None for 1)
TARGETS = (
    ("generators.generate", "sio_lab.generators", "generate", None),
    ("metric.distances_from", "sio_lab.metric", "PointCloud.distances_from",
     None),
    ("kernels.kernel_rows", "sio_lab.kernels", "kernel_rows", _pairs),
    ("kernels.kernel_matrix", "sio_lab.kernels", "kernel_matrix", None),
    ("kernels.check_antisymmetry", "sio_lab.kernels", "check_antisymmetry",
     None),
    ("kernels.check_size_bound", "sio_lab.kernels", "check_size_bound", None),
    ("measure.growth_constant", "sio_lab.measure", "growth_constant", None),
    ("measure.radial_pushforward", "sio_lab.measure", "radial_pushforward",
     None),
    ("measure.interval_mass", "sio_lab.measure", "interval_mass", None),
    ("sums.pairwise_sum", "sio_lab.sums", "pairwise_sum", _elements),
    ("good_radii.materialize_good_set", "sio_lab.good_radii",
     "materialize_good_set", _result_attr("n_intervals")),
    ("good_radii.verify_good_set", "sio_lab.good_radii", "verify_good_set",
     _result_attr("n_scalar_checked")),
    ("good_radii.build_removed_families", "sio_lab.good_radii",
     "build_removed_families", None),
    ("good_radii.is_good_radius", "sio_lab.good_radii", "is_good_radius", _ok),
    ("good_radii.select_good_radius_near", "sio_lab.good_radii",
     "select_good_radius_near", None),
    ("good_radii.concentration_violations", "sio_lab.good_radii",
     "concentration_violations", None),
    ("operator.compute_pairing_trace", "sio_lab.operator",
     "compute_pairing_trace", None),
    ("operator.pairing", "sio_lab.operator", "pairing", _eps),
    ("operator.pairing_difference_bound", "sio_lab.operator",
     "pairing_difference_bound", None),
    ("operator.boundary_term", "sio_lab.operator", "boundary_term", None),
    ("operator.cancellation_residual", "sio_lab.operator",
     "cancellation_residual", None),
    ("operator.annuli_log_bound_check", "sio_lab.operator",
     "annuli_log_bound_check", None),
    ("operator.log_boundary_sum", "sio_lab.operator", "log_boundary_sum",
     None),
    ("operator.shell_mass_check", "sio_lab.operator", "shell_mass_check",
     None),
    ("operator.total_boundary_integral", "sio_lab.operator",
     "total_boundary_integral", None),
    ("suite.run_convergence_suite", "sio_lab.suite", "run_convergence_suite",
     None),
    ("suite.certify_ball", "sio_lab.suite", "certify_ball", None),
    ("suite.emit_report", "sio_lab.suite", "emit_report", None),
    ("cli.main", "sio_lab.cli", "main", None),
)

ITEM = "item"

# per-layer metrics, per traced item: (name, unit, how it is derived)
#   ("self", span)          mean self time of `span` per item, seconds
#   ("calls", span)         mean call count per item
#   ("count", span)         mean of the spans' per-call counts summed per item
#   ("ok_ratio", span)      per-call 0/1 counts summed over calls
#   ("distinct_ratio", span) distinct (item, value) pairs over calls
#   ("passes", span)        mean per-call counts per item over N^2
#   ("overhead",)           traced over untraced wall time, minus 1
PER_LAYER = (
    ("generators.generate.self_s", "s", ("self", "generators.generate")),
    ("metric.distances_from.self_s", "s", ("self", "metric.distances_from")),
    ("metric.distances_from.calls", "count",
     ("calls", "metric.distances_from")),
    ("kernels.kernel_rows.self_s", "s", ("self", "kernels.kernel_rows")),
    ("kernels.kernel_rows.calls", "count", ("calls", "kernels.kernel_rows")),
    ("kernels.kernel_rows.pairs", "count", ("count", "kernels.kernel_rows")),
    ("kernels.kernel_matrix.self_s", "s", ("self", "kernels.kernel_matrix")),
    ("kernels.check_antisymmetry.self_s", "s",
     ("self", "kernels.check_antisymmetry")),
    ("kernels.check_size_bound.self_s", "s",
     ("self", "kernels.check_size_bound")),
    ("measure.growth_constant.self_s", "s",
     ("self", "measure.growth_constant")),
    ("measure.radial_pushforward.self_s", "s",
     ("self", "measure.radial_pushforward")),
    ("measure.radial_pushforward.calls", "count",
     ("calls", "measure.radial_pushforward")),
    ("measure.interval_mass.self_s", "s", ("self", "measure.interval_mass")),
    ("measure.interval_mass.calls", "count",
     ("calls", "measure.interval_mass")),
    ("sums.pairwise_sum.self_s", "s", ("self", "sums.pairwise_sum")),
    ("sums.pairwise_sum.calls", "count", ("calls", "sums.pairwise_sum")),
    ("sums.pairwise_sum.elements", "count", ("count", "sums.pairwise_sum")),
    ("good_radii.materialize_good_set.self_s", "s",
     ("self", "good_radii.materialize_good_set")),
    ("good_radii.materialize_good_set.intervals", "count",
     ("count", "good_radii.materialize_good_set")),
    ("good_radii.verify_good_set.self_s", "s",
     ("self", "good_radii.verify_good_set")),
    ("good_radii.verify_good_set.scalar_checks", "count",
     ("count", "good_radii.verify_good_set")),
    ("good_radii.build_removed_families.self_s", "s",
     ("self", "good_radii.build_removed_families")),
    ("good_radii.build_removed_families.calls", "count",
     ("calls", "good_radii.build_removed_families")),
    ("good_radii.is_good_radius.self_s", "s",
     ("self", "good_radii.is_good_radius")),
    ("good_radii.is_good_radius.calls", "count",
     ("calls", "good_radii.is_good_radius")),
    ("good_radii.is_good_radius.ok_ratio", "ratio",
     ("ok_ratio", "good_radii.is_good_radius")),
    ("good_radii.select_good_radius_near.self_s", "s",
     ("self", "good_radii.select_good_radius_near")),
    ("good_radii.concentration_violations.self_s", "s",
     ("self", "good_radii.concentration_violations")),
    ("operator.compute_pairing_trace.self_s", "s",
     ("self", "operator.compute_pairing_trace")),
    ("operator.pairing.self_s", "s", ("self", "operator.pairing")),
    ("operator.pairing.calls", "count", ("calls", "operator.pairing")),
    ("operator.pairing.distinct_ratio", "ratio",
     ("distinct_ratio", "operator.pairing")),
    ("operator.pairing_difference_bound.self_s", "s",
     ("self", "operator.pairing_difference_bound")),
    ("operator.boundary_term.self_s", "s", ("self", "operator.boundary_term")),
    ("operator.boundary_term.calls", "count",
     ("calls", "operator.boundary_term")),
    ("operator.cancellation_residual.self_s", "s",
     ("self", "operator.cancellation_residual")),
    ("operator.annuli_log_bound_check.self_s", "s",
     ("self", "operator.annuli_log_bound_check")),
    ("operator.log_boundary_sum.self_s", "s",
     ("self", "operator.log_boundary_sum")),
    ("operator.shell_mass_check.self_s", "s",
     ("self", "operator.shell_mass_check")),
    ("operator.total_boundary_integral.self_s", "s",
     ("self", "operator.total_boundary_integral")),
    ("operator.kernel_passes", "count", ("passes", "kernels.kernel_rows")),
    ("suite.run_convergence_suite.self_s", "s",
     ("self", "suite.run_convergence_suite")),
    ("suite.certify_ball.self_s", "s", ("self", "suite.certify_ball")),
    ("suite.emit_report.self_s", "s", ("self", "suite.emit_report")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("trace.overhead_frac", "ratio", ("overhead",)),
)


class Tracer:
    """Span recorder. Spans are tuples
    (id, name, start_ns, end_ns, parent_id or None, item, count)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patch_list: list[tuple] | None = None

    def _parent(self) -> tuple[list[int], int | None]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        # a worker thread's first span belongs to the span that is open in
        # the main thread, which started the pool and waits on it
        main = self._stacks.get(self._main)
        return stack, (main[-1] if main else None)

    def _wrap(self, name: str, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            stack, parent = tracer._parent()
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            n = 1 if count is None else count(args, kwargs, result)
            tracer.spans.append((sid, name, t0, t1, parent, tracer.item, n))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_item(self, item: str, fn):
        """Call fn() with the wrappers installed, inside a root span named
        "item"; the originals are back on return. Spans are tagged
        "<item>#<n>", n counting this tracer's items, so that an item run
        twice is told apart."""
        self.item = f"{item}#{next(self._runs)}"
        for owner, key, _orig, wrapper in self._patches():
            setattr(owner, key, wrapper)
        try:
            return self._wrap(ITEM, fn, None)()
        finally:
            for owner, key, orig, _wrapper in self._patches():
                setattr(owner, key, orig)
            self.item = None

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every place a traced
        function is reachable from; found once, on first use."""
        if self._patch_list is None:
            modules = [mod for name, mod in sorted(sys.modules.items())
                       if name == "sio_lab" or name.startswith("sio_lab.")]
            patches = []
            for name, module_name, attr, count in TARGETS:
                if attr == "PointCloud.distances_from":
                    orig = _metric.PointCloud.distances_from
                    patches.append((_metric.PointCloud, "distances_from", orig,
                                    self._wrap(name, orig, count)))
                    continue
                orig = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, orig, count)
                patches += [(mod, key, orig, wrapper) for mod in modules
                            for key, val in vars(mod).items() if val is orig]
            self._patch_list = patches
        return self._patch_list


def self_times(spans) -> dict[int, int]:
    """Self time in ns of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, _name, t0, t1, parent, _item, _n in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _item, _n in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0 = max(c0, end)
            c1 = min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, n_items: int, n_atoms: int | None,
                  overhead_frac: float) -> dict[str, dict]:
    """Every PER_LAYER metric from the spans of `n_items` traced items;
    `n_atoms` is N for the kernel-pass count (None when no cloud)."""
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for sid, name, _t0, _t1, _parent, _item, n in spans:
        self_ns[name] += selfs[sid]
        calls[name] += 1
        counts[name] += n
    per_item = max(n_items, 1)
    out = {}
    for metric, unit, (kind, *span) in PER_LAYER:
        name = span[0] if span else None
        if kind == "self":
            value = self_ns[name] / 1e9 / per_item
        elif kind == "calls":
            value = calls[name] / per_item
        elif kind == "count":
            value = counts[name] / per_item
        elif kind == "ok_ratio":
            value = counts[name] / calls[name] if calls[name] else 0.0
        elif kind == "distinct_ratio":
            distinct = {(item, n) for _sid, span_name, _t0, _t1, _parent,
                        item, n in spans if span_name == name}
            value = len(distinct) / calls[name] if calls[name] else 0.0
        elif kind == "passes":
            value = counts[name] / per_item / n_atoms ** 2 if n_atoms else 0.0
        else:
            value = overhead_frac
        out[metric] = {"value": value, "unit": unit}
    return out


def write_spans(spans, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("id,name,start_ns,end_ns,parent,item,count\n")
        for sid, name, t0, t1, parent, item, n in spans:
            fh.write(f"{sid},{name},{t0},{t1},"
                     f"{'' if parent is None else parent},{item},{n}\n")
