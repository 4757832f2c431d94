"""Per-layer metrics from a traced pass's spans and counters.

A span's self time is its duration minus the time its child spans cover. A
module's `self_s` sums the self time of every span in that module. Each
ratio is returned with its base, as `(value, base text)`.
"""

from __future__ import annotations

from tracer import MODULES

# Metric stem -> the span names it sums over.
SPANS = {
    "polyhedra.hrep": ("polyhedra.Polyhedron.hrep",),
    "polyhedra.from_hrep": ("polyhedra.polyhedron_from_hrep",),
    "polyhedra.lattice_faces": ("polyhedra.LatticePolytope.faces",),
    "polyhedra.face_scan": ("polyhedra.PolyhedralComplex.facets_of",
                            "polyhedra.PolyhedralComplex.cofacets_of"),
    "polyhedra.cone_in_union": ("polyhedra.cone_in_union",),
    "polyhedra.contains_polyhedron": ("polyhedra.Polyhedron.contains_polyhedron",),
    "linalg.rref": ("linalg.rref",),
    "linalg.quotient_generator": ("linalg.quotient_generator",),
    "hypersurface.subdivision": ("hypersurface.regular_subdivision",),
    "eulercalc.strata": ("eulercalc.toric_strata",),
    "eulercalc.curve_points": ("eulercalc.curve_intersection_points",),
    "matroids.bergman_complex": ("matroids.bergman_complex",),
    "cycles.balancing": ("cycles.check_balancing",),
    "cycles.divisor_intersect": ("cycles.divisor_intersect",),
    "cycles.power_tower": ("cycles.power_tower",),
    "curves.q_reduced": ("curves.q_reduced",),
}

CALLS = ("polyhedra.hrep", "polyhedra.from_hrep", "polyhedra.face_scan",
         "polyhedra.cone_in_union", "polyhedra.contains_polyhedron", "linalg.rref",
         "linalg.quotient_generator", "hypersurface.subdivision", "eulercalc.strata",
         "matroids.bergman_complex", "cycles.balancing", "cycles.divisor_intersect",
         "curves.q_reduced")

SELF = ("polyhedra.hrep", "polyhedra.from_hrep", "polyhedra.lattice_faces",
        "polyhedra.face_scan", "polyhedra.cone_in_union", "linalg.rref",
        "linalg.quotient_generator", "hypersurface.subdivision", "eulercalc.strata",
        "eulercalc.curve_points", "matroids.bergman_complex", "cycles.balancing",
        "cycles.divisor_intersect", "cycles.power_tower")

COUNTERS = ("polyhedra.hrep.computed", "matroids.chains_built", "jsonio.bytes_out",
            "hypersurface.cells_built", "hypersurface.relations_built")

# name -> (unit, better); the order BENCHMARK.json lists them in.
UNITS = {}
for _stem in CALLS:
    UNITS[f"{_stem}.calls"] = ("count", "lower")
for _stem in SELF:
    UNITS[f"{_stem}.self_s"] = ("s", "lower")
for _mod in MODULES:
    UNITS[f"{_mod}.self_s"] = ("s", "lower")
for _name in COUNTERS:
    UNITS[_name] = ("bytes" if _name.endswith("bytes_out") else "count", "lower")
UNITS.update({
    "linalg.calls": ("count", "lower"),
    "hypersurface.subdivision.per_polynomial": ("ratio", "lower"),
    "eulercalc.strata.per_instance": ("ratio", "lower"),
    "matroids.bergman_complex.per_matroid": ("ratio", "lower"),
    "polyhedra.cone_in_union.pieces": ("count", "lower"),
    "hypersurface.smooth_draw.subdivisions": ("ratio", "lower"),
    "instances.curve_pair.accept_ratio": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


def _ratio(num, den):
    return num / den if den else 0.0


def _under(names, parents, target: int, ancestor: int, direct: bool) -> int:
    """Spans named `target` below a span named `ancestor` (as its direct
    child when `direct`)."""
    hits = 0
    for i, nid in enumerate(names):
        if nid != target:
            continue
        p = parents[i]
        while p >= 0:
            if names[p] == ancestor:
                hits += 1
                break
            if direct:
                break
            p = parents[p]
    return hits


def self_times(data: dict) -> list[float]:
    starts, ends, parents = data["start"], data["end"], data["parent"]
    self_s = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            self_s[p] -= ends[i] - starts[i]
    return self_s


def layer_metrics(data: dict, instances: int) -> dict:
    """{metric: (value, base text or None)} for one traced pass (everything
    but trace.overhead_ratio, which needs the untraced passes too)."""
    names, parents = data["name"], data["parent"]
    ids = {n: i for i, n in enumerate(data["names"])}
    own = self_times(data)
    calls, self_by_id = {}, {}
    for nid, t in zip(names, own):
        calls[nid] = calls.get(nid, 0) + 1
        self_by_id[nid] = self_by_id.get(nid, 0.0) + t

    def span_id(name):
        return ids.get(name, -1)

    def n_calls(*span_names):
        return sum(calls.get(span_id(s), 0) for s in span_names)

    def self_of(*span_names):
        return sum(self_by_id.get(span_id(s), 0.0) for s in span_names)

    counters = data["counters"]
    out = {}
    for stem in CALLS:
        out[f"{stem}.calls"] = (n_calls(*SPANS[stem]), None)
    for stem in SELF:
        out[f"{stem}.self_s"] = (self_of(*SPANS[stem]), None)
    for mod in MODULES:
        mod_names = [n for n in data["names"] if n.startswith(mod + ".")]
        out[f"{mod}.self_s"] = (self_of(*mod_names), None)
        if mod == "linalg":
            out["linalg.calls"] = (n_calls(*mod_names), None)
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), None)

    sub = n_calls(*SPANS["hypersurface.subdivision"])
    polys = counters.get("hypersurface.subdivision.distinct_polynomials", 0)
    out["hypersurface.subdivision.per_polynomial"] = (
        _ratio(sub, polys), f"{sub} calls / {polys} distinct term sets")
    strata = n_calls(*SPANS["eulercalc.strata"])
    out["eulercalc.strata.per_instance"] = (
        _ratio(strata, instances), f"{strata} calls / {instances} instances")
    bc = n_calls(*SPANS["matroids.bergman_complex"])
    mats = counters.get("matroids.bergman_complex.distinct_matroids", 0)
    out["matroids.bergman_complex.per_matroid"] = (
        _ratio(bc, mats), f"{bc} calls / {mats} distinct matroids")

    out["polyhedra.cone_in_union.pieces"] = (_under(
        names, parents, span_id("polyhedra.polyhedron_from_hrep"),
        span_id("polyhedra.cone_in_union"), direct=False), None)
    draws = n_calls("hypersurface.random_smooth_polynomial")
    draw_subs = _under(names, parents, span_id("hypersurface.regular_subdivision"),
                       span_id("hypersurface.random_smooth_polynomial"), direct=True)
    out["hypersurface.smooth_draw.subdivisions"] = (
        _ratio(draw_subs, draws), f"{draw_subs} subdivisions / {draws} draws")
    pairs = n_calls("instances.curve_pair")
    # Every seed attempt of curve_pair draws two polynomials.
    attempts = _under(names, parents, span_id("instances.polygon_instance"),
                      span_id("instances.curve_pair"), direct=True) // 2
    out["instances.curve_pair.accept_ratio"] = (
        _ratio(pairs, attempts), f"{pairs} pairs / {attempts} seed attempts")
    out["trace.spans"] = (len(names), None)
    return out
