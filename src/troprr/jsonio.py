"""JSON serialization for every exchange format the command line speaks:
polyhedral complexes, weighted cycles, piecewise-linear functions, matroids,
lattice polygons, tropical polynomials, curve graphs, fans, divisor classes,
and reports.

Rationals travel as "p/q" strings (integers without the "/q"); minus
infinity travels as the string "-inf". Schema violations raise ValueError
with the JSON path of the offending entry."""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import TropicalCurveGraph
from .cycles import CartierFunction, TropicalCycle
from .hypersurface import TropicalPolynomial
from .linalg import matrix_rank
from .matroids import _MAX_GROUND, Matroid
from .polyhedra import NEG_INF, LatticePolytope, PolyhedralComplex, Polyhedron


def frac_to_str(x) -> str:
    if x is NEG_INF:
        return "-inf"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s, path: str = "$"):
    if s == "-inf":
        return NEG_INF
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: not a rational: {s!r}") from exc


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise ValueError(f"{path}: {msg}")


def _at(path: str, build, *args):
    """build(*args), its ValueError prefixed with the JSON path of the input
    it rejects."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _int(v, path: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), path, "expected an integer")
    return v


def _int_vec(v, path: str):
    _expect(isinstance(v, list), path, "expected a list of integers")
    return tuple(_int(c, f"{path}[{i}]") for i, c in enumerate(v))


def _list(data: dict, key: str, path: str) -> list:
    """data[key], an optional list that defaults to empty."""
    v = data.get(key, [])
    _expect(isinstance(v, list), f"{path}.{key}", "expected a list")
    return v


def _finite(s, path: str) -> Fraction:
    x = frac_from_str(s, path)
    _expect(x is not NEG_INF, path, "expected a finite rational")
    return x


# -- polyhedral complexes -----------------------------------------------------------


def complex_to_json(c: PolyhedralComplex) -> dict:
    points = []
    index = {}
    cells = []
    for cell in c.cells:
        vs = []
        for v in cell.vertices:
            if v not in index:
                index[v] = len(points)
                points.append([frac_to_str(x) for x in v])
            vs.append(index[v])
        cells.append({
            "vertices": vs,
            "rays": [[int(x) for x in r] for r in cell.rays],
            "lineality": [[int(x) for x in l] for l in cell.lineality],
        })
    return {
        "ambient_dim": c.ambient_dim,
        "points": points,
        "cells": cells,
        "face_relation": sorted([a, b] for a, b in c.face_relation),
    }


def complex_from_json(data: dict, path: str = "$") -> PolyhedralComplex:
    _expect(isinstance(data, dict), path, "expected an object")
    n = _int(data.get("ambient_dim"), f"{path}.ambient_dim")
    raw_points = data.get("points")
    _expect(isinstance(raw_points, list), f"{path}.points", "expected a list")
    points = []
    for i, p in enumerate(raw_points):
        _expect(isinstance(p, list) and len(p) == n, f"{path}.points[{i}]",
                f"expected {n} coordinates")
        points.append(tuple(_finite(x, f"{path}.points[{i}][{j}]")
                            for j, x in enumerate(p)))
    raw_cells = data.get("cells")
    _expect(isinstance(raw_cells, list), f"{path}.cells", "expected a list")
    cells = []
    for i, cdata in enumerate(raw_cells):
        cpath = f"{path}.cells[{i}]"
        _expect(isinstance(cdata, dict), cpath, "expected an object")
        vidx = [_int(v, f"{cpath}.vertices") for v in _list(cdata, "vertices", cpath)]
        _expect(all(0 <= v < len(points) for v in vidx), f"{cpath}.vertices",
                "vertex index out of range")
        rays = [_int_vec(r, f"{cpath}.rays[{j}]")
                for j, r in enumerate(_list(cdata, "rays", cpath))]
        lin = [_int_vec(l, f"{cpath}.lineality[{j}]")
               for j, l in enumerate(_list(cdata, "lineality", cpath))]
        cells.append(_at(cpath, Polyhedron, [points[v] for v in vidx], rays, lin))
    relation = []
    for i, pair in enumerate(_list(data, "face_relation", path)):
        rpath = f"{path}.face_relation[{i}]"
        _expect(isinstance(pair, list) and len(pair) == 2, rpath, "expected [a, b]")
        a, b = _int(pair[0], rpath), _int(pair[1], rpath)
        _expect(0 <= a < len(cells) and 0 <= b < len(cells), rpath,
                "cell index out of range")
        relation.append((a, b))
    return PolyhedralComplex(n, cells, relation)


# -- cycles and piecewise-linear functions ------------------------------------------


def cycle_to_json(a: TropicalCycle) -> dict:
    out = complex_to_json(a.complex)
    out["dim"] = a.dim
    out["weights"] = {str(i): w for i, w in sorted(a.weights.items())}
    return out


def cycle_from_json(data: dict, path: str = "$") -> TropicalCycle:
    c = complex_from_json(data, path)
    raw = data.get("weights")
    _expect(isinstance(raw, dict), f"{path}.weights", "expected an object")
    weights = {}
    for k, w in raw.items():
        _expect(k.isdecimal() and int(k) < len(c.cells), f"{path}.weights",
                f"bad cell index {k!r}")
        weights[int(k)] = _int(w, f"{path}.weights[{k}]")
    dim = _int(data.get("dim"), f"{path}.dim") if "dim" in data else max(
        (c.cells[i].dim for i in weights), default=0)
    return _at(f"{path}.weights", TropicalCycle, c, dim, weights)


def cartier_to_json(phi: CartierFunction) -> dict:
    return {"pieces": [
        {"cell": i, "linear": [int(x) for x in lin], "constant": frac_to_str(const)}
        for i, (lin, const) in sorted(phi.pieces.items())
    ]}


def cartier_from_json(data: dict, cycle: TropicalCycle, path: str = "$") -> CartierFunction:
    _expect(isinstance(data, dict), path, "expected an object")
    raw = data.get("pieces")
    _expect(isinstance(raw, list), f"{path}.pieces", "expected a list")
    pieces = {}
    for i, pdata in enumerate(raw):
        ppath = f"{path}.pieces[{i}]"
        _expect(isinstance(pdata, dict), ppath, "expected an object")
        cell = _int(pdata.get("cell"), f"{ppath}.cell")
        lin = _int_vec(pdata.get("linear"), f"{ppath}.linear")
        const = frac_from_str(pdata.get("constant"), f"{ppath}.constant")
        pieces[cell] = (lin, const)
    return CartierFunction(cycle, pieces)


# -- matroids, polynomials, graphs, fans --------------------------------------------


def matroid_to_json(m: Matroid) -> dict:
    return {"n": m.n, "bases": sorted(sorted(b) for b in m.bases)}


def matroid_from_json(data: dict, path: str = "$") -> Matroid:
    """A matroid that has a Bergman fan: of positive rank and loopless."""
    _expect(isinstance(data, dict), path, "expected an object")
    n = _int(data.get("n"), f"{path}.n")
    raw = data.get("bases")
    _expect(isinstance(raw, list) and raw, f"{path}.bases",
            "expected a nonempty list")
    _expect(0 <= n <= _MAX_GROUND, f"{path}.n", f"expected 0 <= n <= {_MAX_GROUND}")
    bases = [_int_vec(b, f"{path}.bases[{i}]") for i, b in enumerate(raw)]
    m = _at(f"{path}.bases", Matroid, n, bases)
    _expect(m.rank_value > 0, f"{path}.bases", "expected a matroid of positive rank")
    loops = sorted(m.loops())
    _expect(not loops, f"{path}.bases", f"expected a loopless matroid, got loops {loops}")
    return m


def polygon_from_json(data: dict, path: str = "$") -> LatticePolytope:
    """A lattice polygon from {"vertices": [[x, y], ...]}."""
    _expect(isinstance(data, dict), path, "expected an object with a 'vertices' list")
    raw = data.get("vertices")
    _expect(isinstance(raw, list) and raw, f"{path}.vertices",
            "expected a list of integer points")
    points = []
    for i, v in enumerate(raw):
        p = _int_vec(v, f"{path}.vertices[{i}]")
        _expect(len(p) == 2, f"{path}.vertices[{i}]", "expected [int, int]")
        points.append(p)
    return LatticePolytope(points)


def polynomial_to_json(f: TropicalPolynomial) -> dict:
    return {"n": f.n, "terms": [
        {"exp": list(e), "coeff": frac_to_str(c)}
        for e, c in sorted(f.terms.items())
    ]}


def polynomial_from_json(data: dict, path: str = "$") -> TropicalPolynomial:
    _expect(isinstance(data, dict), path, "expected an object")
    n = _int(data.get("n"), f"{path}.n")
    _expect(n >= 0, f"{path}.n", "expected n >= 0")
    raw = data.get("terms")
    _expect(isinstance(raw, list) and raw, f"{path}.terms",
            "expected a nonempty list")
    terms = {}
    for i, tdata in enumerate(raw):
        tpath = f"{path}.terms[{i}]"
        _expect(isinstance(tdata, dict), tpath, "expected an object")
        e = _int_vec(tdata.get("exp"), f"{tpath}.exp")
        _expect(len(e) == n, f"{tpath}.exp", f"expected {n} exponents")
        terms[e] = _finite(tdata.get("coeff"), f"{tpath}.coeff")
    e0 = next(iter(terms))
    _expect(matrix_rank([[a - b for a, b in zip(e, e0)] for e in terms]) == n,
            f"{path}.terms", "Newton polytope must be full-dimensional")
    return TropicalPolynomial(n, terms)


def graph_to_json(graph: TropicalCurveGraph, divisor=None) -> dict:
    out = {"vertices": graph.n, "edges": [list(e) for e in graph.edges]}
    if divisor is not None:
        out["divisor"] = {str(v): int(c) for v, c in enumerate(divisor) if c}
    return out


def graph_from_json(data: dict, path: str = "$"):
    """Returns (graph, divisor) with the divisor indexed by vertex."""
    _expect(isinstance(data, dict), path, "expected an object")
    n = _int(data.get("vertices"), f"{path}.vertices")
    _expect(n >= 1, f"{path}.vertices", "need at least one vertex")
    raw = data.get("edges")
    _expect(isinstance(raw, list), f"{path}.edges", "expected a list")
    edges = []
    for i, e in enumerate(raw):
        v = _int_vec(e, f"{path}.edges[{i}]")
        _expect(len(v) == 2, f"{path}.edges[{i}]", "expected [u, v]")
        edges.append(v)
    graph = _at(f"{path}.edges", TropicalCurveGraph, n, edges)
    divisor = [0] * n
    raw = data.get("divisor")
    raw = {} if raw is None else raw
    _expect(isinstance(raw, dict), f"{path}.divisor", "expected an object")
    for k, c in raw.items():
        _expect(k.isdecimal() and int(k) < n, f"{path}.divisor",
                f"bad vertex index {k!r}")
        divisor[int(k)] = _int(c, f"{path}.divisor[{k}]")
    return graph, divisor


def fan_from_json(data: dict, path: str = "$"):
    """Returns ("tpn", n) or ("rays", [rays])."""
    _expect(isinstance(data, dict), path, "expected an object")
    if "tpn" in data:
        return "tpn", _int(data["tpn"], f"{path}.tpn")
    raw = data.get("rays")
    _expect(isinstance(raw, list), f"{path}.rays", "expected a list")
    rays = []
    for i, r in enumerate(raw):
        v = _int_vec(r, f"{path}.rays[{i}]")
        _expect(len(v) == 2, f"{path}.rays[{i}]", "expected [int, int]")
        rays.append(v)
    return "rays", rays


def class_to_json(coeffs: dict) -> dict:
    return {"coeffs": {str(k): frac_to_str(v) for k, v in sorted(
        coeffs.items(), key=lambda kv: str(kv[0]))}}


def class_from_json(data: dict, path: str = "$") -> dict:
    _expect(isinstance(data, dict), path, "expected an object")
    raw = data.get("coeffs")
    _expect(isinstance(raw, dict), f"{path}.coeffs", "expected an object")
    return {k: frac_from_str(v, f"{path}.coeffs[{k}]") for k, v in raw.items()}


# -- reports ------------------------------------------------------------------------


def instance_report(path_a: int, path_b: int, lattice_count: int,
                    hypothesis_flags=None, **extra) -> dict:
    out = {
        "chi_complement_pathA": int(path_a),
        "chi_complement_pathB": int(path_b),
        "lattice_count": int(lattice_count),
        "agrees": path_a == path_b == lattice_count,
        "hypothesis_flags": list(hypothesis_flags or []),
    }
    out.update(extra)
    return out


def dumps(data) -> str:
    """Byte-stable JSON text: sorted keys, fixed separators."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
