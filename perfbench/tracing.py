"""Spans around the calls the benchmark makes into each isozeta module.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper installed under every name its callers look it up by (for example
``isozeta.ssgraph.velu_isogeny`` for the calls ``ssgraph`` makes into
``curves``).  A wrapper records one span per call while a job is active:
name, start, end, parent span and job id.  Spans stay in memory; ``write``
dumps them as JSON lines when the run ends.  The per-element ``Fq``
arithmetic methods get call counters instead of spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# span name -> the module attributes to patch, as "module:attribute".
TRACED = {
    "cli.main": ["isozeta.cli:main"],
    "graphs.validate": ["isozeta.graphs:validate", "isozeta.ssgraph:validate"],
    "graphs.io": [
        "isozeta.graphs:format_graph",
        "isozeta.graphs:parse_graph",
        "isozeta.cli:format_graph",
        "isozeta.cli:parse_graph",
    ],
    "graphs.oriented": ["isozeta.graphs:oriented_graphs", "isozeta.cli:oriented_graphs"],
    "ssgraph.build": ["isozeta.ssgraph:build_isogeny_graph", "isozeta.cli:build_isogeny_graph"],
    "ssgraph.provenance": ["isozeta.cli:format_provenance"],
    "curves.ss_j": ["isozeta.ssgraph:supersingular_j_invariants"],
    "curves.model": ["isozeta.ssgraph:supersingular_model"],
    "curves.count_points": ["isozeta.curves:count_points"],
    "curves.torsion_basis": ["isozeta.ssgraph:torsion_basis_in"],
    "curves.velu": ["isozeta.ssgraph:velu_isogeny"],
    "curves.isomorphisms": ["isozeta.ssgraph:isomorphisms", "isozeta.curves:isomorphisms"],
    "curves.automorphisms": ["isozeta.ssgraph:automorphisms"],
    "curves.poly_roots": ["isozeta.curves:poly_roots"],
    "zeta.ihara": ["isozeta.zeta:ihara_zeta", "isozeta.cli:ihara_zeta"],
    "zeta.poly_det": ["isozeta.zeta:poly_det"],
    "zeta.series": ["isozeta.zeta:cycle_count_series", "isozeta.cli:cycle_count_series"],
    "zeta.hashimoto": ["isozeta.zeta:hashimoto_series", "isozeta.cli:hashimoto_series"],
    "intpoly.bareiss": ["isozeta.intpoly:bareiss_det"],
    "intpoly.lagrange": ["isozeta.intpoly:lagrange_interpolate"],
    "walks.closed": ["isozeta.walks:count_closed_walks"],
    "walks.primes": ["isozeta.walks:enumerate_primes", "isozeta.cli:enumerate_primes"],
    "quadforms.euler": ["isozeta.cli:borel_euler_characteristics"],
    "quadforms.class_number": ["isozeta.cli:class_number", "isozeta.quadforms:class_number"],
    "quadforms.cycle_orders": ["isozeta.cli:cycle_orders"],
    "quadforms.nr": ["isozeta.cli:nr_from_class_numbers"],
    "quadforms.point_count": ["isozeta.cli:modular_point_count"],
}

# layers with spans, in report order; fields has counters only
LAYERS = ("cli", "graphs", "ssgraph", "curves", "zeta", "intpoly", "walks", "quadforms")
COUNTED = {"mul": "_mul", "inv": "_inv", "sqrt": "sqrt"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "failed")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.failed = False
        self.start = self.end = 0.0


class Tracer:
    """Installs the wrappers on ``install`` and restores the originals on
    ``uninstall``.  Calls made while ``job`` is None (set-up, the gate's
    own oracle calls) pass through unrecorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None
        self.field_calls = Counter()
        self.build_shapes: list[tuple[int, int, int]] = []  # (vertices, edges, field degree)
        self.ihara_sizes: list[int] = []
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else -1, tracer.job)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        if name == "ssgraph.build":
            degree = result.curves[0].big.field.k  # the working field the build used
            self.build_shapes.append((result.num_vertices, result.graph.num_edges, degree))
        elif name == "zeta.ihara":
            self.ihara_sizes.append(args[0].num_vertices)

    def _count(self, key, fn):
        counter = self.field_calls

        @functools.wraps(fn)
        def wrapper(*args):
            counter[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for name, targets in TRACED.items():
            wrappers = {}  # several names can refer to one function: wrap it once
            for target in targets:
                mod_name, attr = target.split(":")
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        from isozeta.fields import Fq

        for key, attr in COUNTED.items():
            fn = getattr(Fq, attr)
            self._saved.append((Fq, attr, fn))
            setattr(Fq, attr, self._count(key, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "job": s.job,
                            "failed": s.failed,
                        }
                    )
                    + "\n"
                )

    # -- analysis ----------------------------------------------------------------

    def layer_metrics(self, traced_job_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans.

        ``<name>.s`` sums the outermost spans of a name (a span nested in one
        of the same name is not counted twice); ``<layer>.self_s`` is span
        time minus the time of direct child spans; ``trace.unattributed_s`` is
        job time outside every span, so the self times and it add up to
        ``trace.job_s``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        total = Counter()
        calls = Counter()
        failed = Counter()
        self_by_layer = Counter()
        self_by_name = Counter()
        root_time = 0.0
        bareiss_in_poly_det = 0
        for s in spans:
            d = s.end - s.start
            calls[s.name] += 1
            failed[s.name] += s.failed
            if s.parent >= 0:
                child_time[s.parent] += d
            else:
                root_time += d
        for i, s in enumerate(spans):
            d = s.end - s.start
            own = d - child_time[i]
            self_by_layer[s.name.split(".")[0]] += own
            self_by_name[s.name] += own
            if not self._inside(i, s.name):
                total[s.name] += d
            if s.name == "intpoly.bareiss" and s.parent >= 0 and spans[s.parent].name == "zeta.poly_det":
                bareiss_in_poly_det += 1
        quad_total = sum(
            s.end - s.start
            for s in spans
            if s.name.startswith("quadforms.") and (s.parent < 0 or not spans[s.parent].name.startswith("quadforms."))
        )
        models = calls["curves.model"]
        counted = calls["curves.count_points"]
        shapes = self.build_shapes
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for layer in LAYERS:
            put(f"{layer}.self_s", self_by_layer[layer], "s")
        put("trace.job_s", traced_job_s, "s")
        put("trace.unattributed_s", traced_job_s - root_time, "s")
        put("trace.spans", len(spans), "count")
        put("graphs.validate.s", total["graphs.validate"], "s")
        put("graphs.validate.calls", calls["graphs.validate"], "count")
        put("graphs.io.s", total["graphs.io"], "s")
        put("graphs.oriented.s", total["graphs.oriented"], "s")
        put("ssgraph.build.s", total["ssgraph.build"], "s")
        put("ssgraph.build.calls", calls["ssgraph.build"], "count")
        put("ssgraph.build.self_s", self_by_name["ssgraph.build"], "s")
        put("ssgraph.build.failed", failed["ssgraph.build"], "count")
        put("ssgraph.provenance.s", total["ssgraph.provenance"], "s")
        put("ssgraph.vertices", sum(v for v, _, _ in shapes), "count")
        put("ssgraph.edges", sum(e for _, e, _ in shapes), "count")
        put("ssgraph.field_degree", sum(f for _, _, f in shapes) / len(shapes) if shapes else 0.0, "degree")
        put("curves.ss_j.s", total["curves.ss_j"], "s")
        put("curves.ss_j.calls", calls["curves.ss_j"], "count")
        put("curves.model.s", total["curves.model"], "s")
        put("curves.count_points.calls", counted, "count")
        put("curves.model.useful_ratio", models / counted if counted else 0.0, "ratio")
        put("curves.torsion_basis.s", total["curves.torsion_basis"], "s")
        put("curves.velu.s", total["curves.velu"], "s")
        put("curves.velu.calls", calls["curves.velu"], "count")
        put("curves.isomorphisms.s", total["curves.isomorphisms"], "s")
        put("curves.isomorphisms.calls", calls["curves.isomorphisms"], "count")
        put("curves.automorphisms.s", total["curves.automorphisms"], "s")
        put("curves.poly_roots.s", total["curves.poly_roots"], "s")
        put("curves.poly_roots.calls", calls["curves.poly_roots"], "count")
        for key in COUNTED:
            put(f"fields.{key}.calls", self.field_calls[key], "count")
        put("zeta.ihara.s", total["zeta.ihara"], "s")
        put("zeta.ihara.calls", calls["zeta.ihara"], "count")
        put("zeta.ihara.max_n", max(self.ihara_sizes, default=0), "count")
        put("zeta.poly_det.s", total["zeta.poly_det"], "s")
        put("zeta.poly_det.points", bareiss_in_poly_det, "count")
        put("zeta.series.s", total["zeta.series"], "s")
        put("zeta.hashimoto.s", total["zeta.hashimoto"], "s")
        put("intpoly.bareiss.s", total["intpoly.bareiss"], "s")
        put("intpoly.bareiss.calls", calls["intpoly.bareiss"], "count")
        put("intpoly.lagrange.s", total["intpoly.lagrange"], "s")
        put("walks.closed.s", total["walks.closed"], "s")
        put("walks.closed.calls", calls["walks.closed"], "count")
        put("walks.primes.s", total["walks.primes"], "s")
        put("quadforms.s", quad_total, "s")
        put("quadforms.class_number.calls", calls["quadforms.class_number"], "count")
        return out

    def _inside(self, i: int, name: str) -> bool:
        """True when span i is nested in another span of the same name."""
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False
