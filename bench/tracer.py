"""Outside-in tracing of latticeforge's layers, from the benchmark's own files.

`Tracer.installed()` wraps the public functions of each layer module (plus
the two methods the per-layer metrics need) in every latticeforge module
namespace that binds them: ``lattice_points`` is imported by name into
``unimodular``, ``sumsets`` and ``cli``, while ``lp`` is called as a module
attribute, and both kinds of binding are replaced.  Each call records a span
(name, start, end, parent) in memory.  At the end of a pass the spans give
per-layer self time (span minus its children) and exact work counts derived
from call arguments and return values.

Tiny vector helpers are not wrapped: they do no measurable work per call, so
a span around each would cost more than the call and their time stays with
the caller's layer.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "unimodular", "lp", "geometry", "sumsets", "linalg")
UNWRAPPED = {"as_point", "as_rat_point", "vec_add", "vec_sub", "vec_scale", "vec_dot"}
METHODS = {"geometry": ("LatticePolytope.__init__", "LatticeSimplex.contains_point")}

# (name, unit) of every per-layer metric, in report order; BENCHMARK.json says which way is better.
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("unimodular.self_s", "s"),
    ("unimodular.verify_calls", "count"),
    ("unimodular.cell_pairs", "count"),
    ("unimodular.pairs_to_lp", "count"),
    ("unimodular.lp_pair_ratio", "ratio"),
    ("unimodular.placing_attempts", "count"),
    ("unimodular.cells_built", "count"),
    ("unimodular.attempt_yield", "ratio"),
    ("unimodular.decompose_calls", "count"),
    ("unimodular.cells_probed_per_query", "count"),
    ("lp.self_s", "s"),
    ("lp.margin_solves", "count"),
    ("lp.membership_solves", "count"),
    ("lp.tableau_cells", "count"),
    ("geometry.self_s", "s"),
    ("geometry.polytope_builds", "count"),
    ("geometry.build_s", "s"),
    ("geometry.enum_calls", "count"),
    ("geometry.box_cells", "count"),
    ("geometry.points_found", "count"),
    ("geometry.enum_yield", "ratio"),
    ("geometry.contains_calls", "count"),
    ("sumsets.self_s", "s"),
    ("sumsets.pairs", "count"),
    ("sumsets.points_out", "count"),
    ("sumsets.dedup_yield", "ratio"),
    ("linalg.self_s", "s"),
    ("linalg.det_calls", "count"),
    ("linalg.solve_calls", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def _box_cells(p) -> int:
    mins, maxs = p.bounding_box()
    return math.prod(hi - lo + 1 for lo, hi in zip(mins, maxs))


# Counts taken from a call's arguments and result: name -> fn(arguments, result) -> {counter: n}.
HOOKS = {
    "lp.solve_min": lambda a, r: {"lp.tableau_cells": len(a["a"]) * len(a["c"])},
    "unimodular.verify_cover": lambda a, r: {"unimodular.cell_pairs": math.comb(len(a["cover"].cells), 2)},
    "unimodular.placing_triangulation": lambda a, r: {
        "unimodular.cells_built": len(r.cells),
        "unimodular.unimodular_attempts": int(all(abs(c.det) == 1 for c in r.cells)),
    },
    "geometry.lattice_points": lambda a, r: {"geometry.box_cells": _box_cells(a["p"]), "geometry.points_found": len(r)},
    "sumsets.sumset": lambda a, r: {"sumsets.pairs": len(a["s"]) * len(a["t"]), "sumsets.points_out": len(r)},
}
# Calls counted only when an ancestor span has the given name.
NESTED = {
    "lp.max_min_margin": ("unimodular.verify_cover", "unimodular.pairs_to_lp"),
    "geometry.LatticeSimplex.contains_point": ("unimodular.decompose", "unimodular.cells_probed"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}  # name -> index in self.names
        self.spans = []  # (name id, start ns, end ns, parent index or -1)
        self.stack = []
        self.counts = Counter()

    def _discover(self):
        """(owner, attribute, original, qualified name) for every binding to wrap."""
        modules = {n: m for n, m in sys.modules.items() if n == "latticeforge" or n.startswith("latticeforge.")}
        originals = {}
        for layer in LAYERS:
            mod = modules[f"latticeforge.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_") \
                        and attr not in UNWRAPPED:
                    originals[fn] = f"{layer}.{attr}"
        targets = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    targets.append((mod, attr, value, originals[value]))
        for layer, methods in METHODS.items():
            mod = modules[f"latticeforge.{layer}"]
            for qual in methods:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                targets.append((cls, attr, vars(cls)[attr], f"{layer}.{qual}"))
        return targets

    def _wrap(self, fn, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                counts.update(hook(signature.bind(*args, **kwargs).arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target of the package as loaded now for the duration of the block, then restore."""
        targets = self._discover()
        wrappers = {}
        for owner, attr, fn, name in targets:
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            setattr(owner, attr, wrappers[fn])
        try:
            yield
        finally:
            for owner, attr, fn, _ in targets:
                setattr(owner, attr, fn)

    def take_pass(self):
        """Hand over and clear the spans and counts recorded so far."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans, names, counts) -> dict:
    """Per-layer metrics of one traced pass (times in seconds, counts exact)."""
    name_of = [names[s[0]] for s in spans]
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    self_ns = Counter()
    calls = Counter(name_of)
    nested = Counter()
    build_ns = 0
    for i, (_, start, end, parent) in enumerate(spans):
        name = name_of[i]
        self_ns[name.split(".", 1)[0]] += end - start - children[i]
        if name == "geometry.LatticePolytope.__init__":
            build_ns += end - start
        if name in NESTED:
            ancestor, counter = NESTED[name]
            p = parent
            while p >= 0 and name_of[p] != ancestor:
                p = spans[p][3]
            if p >= 0:
                nested[counter] += 1
    c = counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    m.update({
        "cli.report_bytes": c["cli.report_bytes"],
        "unimodular.verify_calls": calls["unimodular.verify_cover"],
        "unimodular.cell_pairs": c["unimodular.cell_pairs"],
        "unimodular.pairs_to_lp": nested["unimodular.pairs_to_lp"],
        "unimodular.lp_pair_ratio": ratio(nested["unimodular.pairs_to_lp"], c["unimodular.cell_pairs"]),
        "unimodular.placing_attempts": calls["unimodular.placing_triangulation"],
        "unimodular.cells_built": c["unimodular.cells_built"],
        "unimodular.attempt_yield": ratio(c["unimodular.unimodular_attempts"],
                                          calls["unimodular.placing_triangulation"]),
        "unimodular.decompose_calls": calls["unimodular.decompose"],
        "unimodular.cells_probed_per_query": ratio(nested["unimodular.cells_probed"], calls["unimodular.decompose"]),
        "lp.margin_solves": calls["lp.max_min_margin"],
        "lp.membership_solves": calls["lp.feasible_nonneg"],
        "lp.tableau_cells": c["lp.tableau_cells"],
        "geometry.polytope_builds": calls["geometry.LatticePolytope.__init__"],
        "geometry.build_s": build_ns / 1e9,
        "geometry.enum_calls": calls["geometry.lattice_points"],
        "geometry.box_cells": c["geometry.box_cells"],
        "geometry.points_found": c["geometry.points_found"],
        "geometry.enum_yield": ratio(c["geometry.points_found"], c["geometry.box_cells"]),
        "geometry.contains_calls": calls["geometry.contains"],
        "sumsets.pairs": c["sumsets.pairs"],
        "sumsets.points_out": c["sumsets.points_out"],
        "sumsets.dedup_yield": ratio(c["sumsets.points_out"], c["sumsets.pairs"]),
        "linalg.det_calls": calls["linalg.determinant"],
        "linalg.solve_calls": calls["linalg.solve_rational"],
        "trace.spans": len(spans),
    })
    return m


def write_spans(path, spans, names):
    """Spans as gzipped JSON lines: a header with the name table, then one span per line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"names": names, "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
