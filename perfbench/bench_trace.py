"""Spans around calls into quermass, installed from outside the package.

A :class:`Tracer` replaces selected functions and methods of the
``quermass`` modules by wrappers that record a span per call: name,
thread, start, end, the same-thread parent span and, for work handed to
the ``suites._pmap`` thread pool, the span that submitted it.  Spans
stay in memory; :func:`layer_metrics` reduces them to per-layer numbers
once the traced sequence has ended.

Self time of a span is its duration minus the durations of its
same-thread children.  Time on the main thread that no span covers is
reported as ``trace.untraced.s``, so the self times of the main thread's
spans plus ``trace.untraced.s`` add up to the traced wall time.  That
holds only while children fit inside their parents and the root spans
inside the traced sequence; :func:`consistency_problems` checks both.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" attributes patch the
# class; plain attributes are replaced in every quermass module that binds
# the same object, which covers names bound by ``from ... import``.
SPAN_TARGETS = [
    ("quermass.cli", "cmd_verify", "cli.verify"),
    ("quermass.cli", "cmd_conjecture", "cli.conjecture"),
    ("quermass.cli", "cmd_counterexample", "cli.counterexample"),
    ("quermass.suites", "route_agreement_suite", "suites.route_agreement"),
    ("quermass.suites", "frequency_split_suite", "suites.frequency_split"),
    ("quermass.suites", "axial_deficit_suite", "suites.axial_deficit"),
    ("quermass.suites", "stability_suite", "suites.stability"),
    ("quermass.suites", "pole_bound_suite", "suites.pole_bound"),
    ("quermass.suites", "dent_sweep_suite", "suites.dent_sweep"),
    ("quermass.suites", "negative_total_curvature_suite", "suites.negative_search"),
    ("quermass.grids", "build_grid", "grids.build_grid"),
    ("quermass.harmonics", "sh_synthesize", "harmonics.sh_synthesize"),
    ("quermass.harmonics", "sh_analyze", "harmonics.sh_analyze"),
    ("quermass.harmonics", "legendre_tables", "harmonics.legendre_tables"),
    ("quermass.harmonics", "ZonalBasis.values", "harmonics.ZonalBasis.values"),
    ("quermass.fields", "grad_frame", "fields.grad_frame"),
    ("quermass.fields", "hessian_frame", "fields.hessian_frame"),
    ("quermass.stardomain", "StarDomain.curvatures", "stardomain.curvatures"),
    ("quermass.stardomain", "StarDomain.eps_size", "stardomain.eps_size"),
    ("quermass.stardomain", "StarDomain.integrated_mean_curvature",
     "stardomain.integrated_mean_curvature"),
    ("quermass.axisym", "AxialProfile.__init__", "axisym.AxialProfile.init"),
    ("quermass.axisym", "AxialProfile.value", "axisym.profile_eval"),
    ("quermass.axisym", "AxialProfile.slope", "axisym.profile_eval"),
    ("quermass.axisym", "AxialProfile.curvature_slope", "axisym.profile_eval"),
    ("quermass.axisym", "AxialDomain.eps_size", "axisym.eps_size"),
    ("quermass.axisym", "axial_functionals", "axisym.axial_functionals"),
    ("quermass.axisym", "axial_minkowski_deficit", "deficits.deficit"),
    ("quermass.deficits", "random_domain", "deficits.random_domain"),
    ("quermass.deficits", "minkowski_deficit", "deficits.deficit"),
    ("quermass.deficits", "volumetric_minkowski_deficit", "deficits.deficit"),
    ("quermass.deficits", "nuclear_minkowski_deficit", "deficits.deficit"),
    ("quermass.deficits", "stability_ratio", "deficits.deficit"),
    ("quermass.cubic", "high_frequency_bound_check", "cubic.high_frequency_bound_check"),
    ("quermass.counterexample", "pack_points", "counterexample.pack_points"),
    ("quermass.counterexample", "total_mean_curvature_zonal",
     "counterexample.total_mean_curvature_zonal"),
    ("quermass.counterexample", "total_mean_curvature_grid",
     "counterexample.total_mean_curvature_grid"),
    ("quermass.analytic", "GeodesicRadialField.__init__", "analytic.GeodesicRadialField.init"),
    ("quermass.analytic", "GeodesicRadialField.scalar_invariants",
     "analytic.scalar_invariants"),
    ("quermass.conjecture", "maximize_ratio", "conjecture.maximize_ratio"),
    ("quermass.reporting", "write_csv", "reporting.write"),
    ("quermass.reporting", "write_json", "reporting.write"),
]
SPAN_TARGETS += [
    ("quermass.conjecture", f"{cls}.{meth}", "conjecture.backend")
    for cls in ("FullSphereBackend", "CircleBackend", "ZonalBackend")
    for meth in ("laplacian_values", "grad2_values", "graddelta_dot_grad",
                 "project", "integrate")
]


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, original) for a target."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name: str, attr: str, make):
        """Replace a target by make(original) wherever quermass binds it."""
        owner, name, original = _resolve(module_name, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "quermass" or key.startswith("quermass."))
                      and getattr(m, name, None) is original]
        for o in owners:
            self._saved.append((o, name, original))
            setattr(o, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "cause", "attrs")

    def __init__(self, name, thread, start, parent, cause=None):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.parent = parent
        self.cause = cause
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-thread span stacks plus event counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._count_lock = threading.Lock()     # pool workers count too
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._patches = Patches()
        # perf_counter bounds of the traced sequence, set by its runner
        self.start = self.end = None

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, cause: Span | None = None) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter(),
                    stack[-1] if stack else None, cause)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def spanned(self, name: str, after=None):
        """Decorator factory: a span per call; after(span, args, result)."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            return wrapper
        return make

    def counted(self, key: str, classify=None):
        """Decorator factory: count calls, or classify(args) -> key suffix."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                k = key if classify is None else f"{key}.{classify(args, kwargs)}"
                with self._count_lock:
                    self.counts[k] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPAN_TARGETS:
            self._patches.replace(module_name, attr,
                                  self.spanned(name, _AFTER.get(name)))
        self._patches.replace("quermass.suites", "_pmap", self._pool)
        self._patches.replace("quermass.stardomain", "StarDomain.deviation_values",
                              self.counted("stardomain.deviation_values"))
        self._patches.replace("quermass.harmonics", "sh_tables_for_grid",
                              self.counted("harmonics.sh_tables", _table_cached))

    def uninstall(self) -> None:
        self._patches.restore()

    def _pool(self, original):
        from quermass.config import thread_count

        @functools.wraps(original)
        def pmap(fn, items):
            pool = self.open("suites.pool")
            pool.attrs = {"threads": thread_count()}

            def item(x):
                span = self.open("suites.pool.item", cause=pool)
                try:
                    return fn(x)
                finally:
                    self.close(span)
            try:
                return original(item, items)
            finally:
                self.close(pool)
        return pmap

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as [name, thread, start, end, parent, cause, attrs].

        Times are seconds from the start of the traced sequence; parent
        and cause are indices into the list, -1 for none.
        """
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.thread, s.start - self.start, s.end - self.start,
                 index.get(id(s.parent), -1), index.get(id(s.cause), -1), s.attrs]
                for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"main_thread": self.main_thread, "spans": rows}, fh)


def _table_cached(args, kwargs):
    grid, L = args[0], (args[1] if len(args) > 1 else kwargs["L"])
    return "hit" if ("sh", L) in object.__getattribute__(grid, "_cache") else "miss"


def _record_nodes(span, args, kwargs, grid):
    span.attrs = {"nodes": grid.num_nodes}


def _record_packing(span, args, kwargs, packed):
    span.attrs = {"n": packed.n, "points": packed.count,
                  "kappa_power": packed.kappa ** (packed.n - 1)}


def _record_bytes(span, args, kwargs, path):
    span.attrs = {"bytes": path.stat().st_size}


_AFTER = {
    "grids.build_grid": _record_nodes,
    "counterexample.pack_points": _record_packing,
    "reporting.write": _record_bytes,
}


# -- reduction ----------------------------------------------------------------

def _covered(spans) -> dict:
    """id(span) -> summed duration of its same-thread children."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.duration
    return covered


def self_times(spans) -> dict:
    """Self time per span name, summed over all spans and threads."""
    covered = _covered(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - covered[id(s)]
    return dict(out)


def untraced_time(spans, main_thread: int, wall: float) -> float:
    """Main-thread wall time that no root span covers."""
    return wall - sum(s.duration for s in spans
                      if s.parent is None and s.thread == main_thread)


# Per-layer metrics: name -> unit.  ".s" of cli.* and suites.<suite> is
# inclusive (the per-command and per-suite split); every other ".s" is
# self time.
PER_LAYER_UNITS = {}
INCLUSIVE = ["cli.verify", "cli.conjecture", "cli.counterexample",
             "suites.route_agreement", "suites.frequency_split",
             "suites.axial_deficit", "suites.stability", "suites.pole_bound",
             "suites.dent_sweep", "suites.negative_search"]
SELF_TIMED = ["grids.build_grid", "harmonics.sh_synthesize", "harmonics.sh_analyze",
              "harmonics.legendre_tables", "harmonics.ZonalBasis.values",
              "fields.grad_frame", "fields.hessian_frame",
              "stardomain.curvatures", "stardomain.eps_size",
              "stardomain.integrated_mean_curvature",
              "axisym.AxialProfile.init", "axisym.eps_size",
              "axisym.axial_functionals", "axisym.profile_eval",
              "deficits.random_domain", "deficits.deficit",
              "cubic.high_frequency_bound_check",
              "counterexample.total_mean_curvature_zonal",
              "counterexample.total_mean_curvature_grid",
              "analytic.scalar_invariants", "analytic.GeodesicRadialField.init",
              "conjecture.maximize_ratio", "conjecture.backend",
              "reporting.write", "suites.pool.wait"]
CALLED = ["grids.build_grid", "harmonics.sh_synthesize", "harmonics.sh_analyze",
          "harmonics.legendre_tables", "harmonics.ZonalBasis.values",
          "fields.grad_frame", "stardomain.curvatures", "stardomain.eps_size",
          "axisym.AxialProfile.init", "axisym.eps_size", "axisym.axial_functionals",
          "deficits.random_domain", "cubic.high_frequency_bound_check",
          "analytic.scalar_invariants", "conjecture.maximize_ratio",
          "conjecture.backend"]
for _name in INCLUSIVE + SELF_TIMED:
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
for _name in CALLED:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
for _n in ("n3", "n4"):
    PER_LAYER_UNITS[f"counterexample.pack_points.{_n}.s"] = "s"
    PER_LAYER_UNITS[f"counterexample.pack_points.{_n}.points"] = "count"
    PER_LAYER_UNITS[f"counterexample.pack_points.{_n}.packing_constant"] = "1"
PER_LAYER_UNITS.update({
    "suites.pool.busy_ratio": "1",
    "harmonics.sh_tables.hit_ratio": "1",
    "stardomain.eps_size.evals_per_call": "1",
    "counterexample.grid_check.nodes_per_s": "1/s",
    "reporting.bytes": "bytes",
    "trace.untraced.s": "s",
    "trace.overhead_frac": "1",
})


def layer_metrics(tracer: Tracer, untraced_wall: float) -> dict:
    """Every per-layer metric (0 where the layer did not run)."""
    spans = tracer.spans
    wall = tracer.end - tracer.start
    own = self_times(spans)
    # the pool span's self time is the submitting thread waiting for items
    own["suites.pool.wait"] = own.get("suites.pool", 0.0)
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    out = {}
    for name in INCLUSIVE:
        out[f"{name}.s"] = total[name]
    for name in SELF_TIMED:
        out[f"{name}.s"] = own.get(name, 0.0)
    for name in CALLED:
        out[f"{name}.calls"] = calls[name]

    for n in (3, 4):
        packs = [s for s in spans
                 if s.name == "counterexample.pack_points" and s.attrs["n"] == n]
        points = sum(s.attrs["points"] for s in packs)
        power = sum(s.attrs["kappa_power"] for s in packs)
        out[f"counterexample.pack_points.n{n}.s"] = sum(s.duration for s in packs)
        out[f"counterexample.pack_points.n{n}.points"] = points
        out[f"counterexample.pack_points.n{n}.packing_constant"] = (
            points / power if power else 0.0)

    pools = [s for s in spans if s.name == "suites.pool"]
    capacity = sum(s.duration * s.attrs["threads"] for s in pools)
    out["suites.pool.busy_ratio"] = (total["suites.pool.item"] / capacity
                                     if capacity else 0.0)
    tables = tracer.counts["harmonics.sh_tables.hit"] + tracer.counts["harmonics.sh_tables.miss"]
    out["harmonics.sh_tables.hit_ratio"] = (
        tracer.counts["harmonics.sh_tables.hit"] / tables if tables else 0.0)
    out["stardomain.eps_size.evals_per_call"] = (
        tracer.counts["stardomain.deviation_values"] / calls["stardomain.eps_size"]
        if calls["stardomain.eps_size"] else 0.0)

    checked = [s for s in spans if s.name == "counterexample.total_mean_curvature_grid"]
    nodes = sum(c.attrs["nodes"] for c in spans
                if c.name == "grids.build_grid" and c.parent in checked)
    seconds = sum(s.duration for s in checked)
    out["counterexample.grid_check.nodes_per_s"] = nodes / seconds if seconds else 0.0
    out["reporting.bytes"] = sum(s.attrs["bytes"] for s in spans
                                 if s.name == "reporting.write")
    out["trace.untraced.s"] = untraced_time(spans, tracer.main_thread, wall)
    out["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall
    return out


def consistency_problems(tracer: Tracer, tolerance: float = 1e-9) -> list[str]:
    """What breaks the self-time accounting; empty when it adds up.

    Every span's self time and the untraced time must be >= 0 (children
    fit inside their parent), and every main-thread root span must lie
    inside [tracer.start, tracer.end].
    """
    spans = tracer.spans
    problems = []
    covered = _covered(spans)
    for s in spans:
        if s.duration - covered[id(s)] < -tolerance:
            problems.append(f"{s.name}: children cover {covered[id(s)]:.6g} s "
                            f"of {s.duration:.6g} s")
    for s in spans:
        if s.parent is None and s.thread == tracer.main_thread and not (
                tracer.start - tolerance <= s.start and s.end <= tracer.end + tolerance):
            problems.append(f"{s.name}: root span outside the traced sequence")
    untraced = untraced_time(spans, tracer.main_thread, tracer.end - tracer.start)
    if untraced < -tolerance:
        problems.append(f"untraced time {untraced:.6g} s < 0")
    return problems
