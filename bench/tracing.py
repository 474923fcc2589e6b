"""Spans around the library's layers, installed from the benchmark's files.

A traced run replaces selected functions of the ``edgewise`` package with
wrappers that record one span per call: name, start, end, parent span id,
op index and whether it raised.  A function is rebound in every module
namespace that holds it (``decode_facet`` lives in ``subdivision``, ``cli``,
``shelling``, ``starcluster`` and the package root), so no call path skips
its wrapper.  Spans stay in memory until the run ends; ``layer_metrics``
then turns them into per-layer numbers.

Self time is a span's duration minus the time its direct child spans cover.
Total time counts only spans with no open ancestor of the same name, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from sink import HashSink

# Wrapped one by one and reported as <name>.{calls,self_s,total_s,errors}.
TARGETS = (
    "cli.main",
    "subdivision.decode_facet",
    "subdivision.build_complex",
    "subdivision.off_export",
    "subdivision.star_of_vertex",
    "subdivision.link_of_vertex",
    "subdivision.link_of_face",
    "complexes.SimplicialComplex",
    "complexes.SimplicialComplex.faces",
    "complexes.verify_shelling",
    "complexes.find_isomorphism",
    "complexes.join",
    "posets.k_lambda",
    "posets.h_k_lambda",
    "shelling.shelling_order",
    "shelling.predicted_restriction",
    "shelling.h_by_ascents",
    "shelling.h_routes",
    "starcluster.sc_layers",
    "starcluster.sc_shelling_and_h",
)
# Every public function of this module is wrapped; they are reported as one.
AGGREGATE = "combinat"
SINK = "bench.sink"


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = []
    for name in TARGETS:
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                 (f"{name}.total_s", "s"), (f"{name}.errors", "count")]
    spec += [
        (f"{AGGREGATE}.calls", "count"),
        (f"{AGGREGATE}.self_s", "s"),
        (f"{AGGREGATE}.total_s", "s"),
        ("cli.stdout_bytes", "bytes"),
        ("complexes.SimplicialComplex.facets_in", "count"),
        ("complexes.verify_shelling.facets", "count"),
        ("complexes.verify_shelling.scan_frac", "frac"),
        ("trace.overhead_frac", "frac"),
    ]
    return spec


class Tracer:
    """Span store and the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        # (name, group, start, end, parent id, op index, raised, outer, outer in group)
        self.spans: list[tuple | None] = []
        self.op = -1
        self.facets_in = 0
        self.verify_facets = 0
        self.verify_scanned = 0
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._open_groups: Counter = Counter()

    def wrap(self, name: str, group: str, fn):
        spans, stack = self.spans, self._stack
        open_names, open_groups = self._open_names, self._open_groups

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outer, outer_group = not open_names[name], not open_groups[group]
            open_names[name] += 1
            open_groups[group] += 1
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                open_names[name] -= 1
                open_groups[group] -= 1
                stack.pop()
                spans[sid] = (name, group, start, end, parent, self.op, raised, outer, outer_group)

        return traced


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_constructor(tracer: Tracer, name: str, cls) -> None:
    traced_init = tracer.wrap(name, "complexes", cls.__init__)

    # Generators are drained before the span opens, so the work that
    # produces the facets stays with the caller that produced them.
    @functools.wraps(cls.__init__)
    def __init__(self, facets):
        facets = list(facets)
        tracer.facets_in += len(facets)
        traced_init(self, facets)

    cls.__init__ = __init__


def _wrap_verify(tracer: Tracer, name: str, original):
    traced_verify = tracer.wrap(name, "complexes", original)

    @functools.wraps(original)
    def verify_shelling(*args, **kwargs):
        cert = traced_verify(*args, **kwargs)
        n = len(cert.order)
        tracer.verify_facets += n
        tracer.verify_scanned += cert.witness[1] if cert.witness else n
        return cert

    return verify_shelling


def install(tracer: Tracer) -> None:
    """Wrap every target in every edgewise module that binds it."""
    modules = [m for n, m in sys.modules.items() if n == "edgewise" or n.startswith("edgewise.")]
    package = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("edgewise.")}
    cls = package["complexes"].SimplicialComplex

    for target in TARGETS:
        module_name, _, attr = target.partition(".")
        if attr == "SimplicialComplex":
            _wrap_constructor(tracer, target, cls)
        elif attr == "SimplicialComplex.faces":
            cls.faces = tracer.wrap(target, module_name, cls.faces)
        elif attr == "verify_shelling":
            original = package[module_name].verify_shelling
            _rebind(modules, original, _wrap_verify(tracer, target, original))
        else:
            original = getattr(package[module_name], attr)
            _rebind(modules, original, tracer.wrap(target, module_name, original))

    combinat = package[AGGREGATE]
    for attr, value in list(vars(combinat).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == combinat.__name__
        ):
            _rebind(modules, value, tracer.wrap(f"{AGGREGATE}.{attr}", AGGREGATE, value))

    # Capture cost is the benchmark's, not the CLI's: its span is subtracted
    # from cli.main's self time and reported nowhere.
    HashSink.write = tracer.wrap(SINK, SINK, HashSink.write)


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass, every metric present."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, group, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    values = {name: 0 for name, _ in per_layer_spec()}
    for sid, (name, group, start, end, _, _, raised, outer, outer_group) in enumerate(spans):
        duration = end - start
        self_time = duration - covered[sid]
        if group == AGGREGATE:
            values[f"{AGGREGATE}.calls"] += 1
            values[f"{AGGREGATE}.self_s"] += self_time
            values[f"{AGGREGATE}.total_s"] += duration if outer_group else 0.0
        elif name != SINK:
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += self_time
            values[f"{name}.total_s"] += duration if outer else 0.0
            values[f"{name}.errors"] += raised
    values["cli.stdout_bytes"] = stdout_bytes
    values["complexes.SimplicialComplex.facets_in"] = tracer.facets_in
    values["complexes.verify_shelling.facets"] = tracer.verify_facets
    if tracer.verify_facets:
        scan_frac = tracer.verify_scanned / tracer.verify_facets
        values["complexes.verify_shelling.scan_frac"] = scan_frac
    return values
