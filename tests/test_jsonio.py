"""Round-trip and schema-diagnostic tests for the JSON exchange formats."""

from fractions import Fraction

import pytest

from troprr.curves import TropicalCurveGraph
from troprr.hypersurface import (
    cartier_from_polynomial,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr.jsonio import (
    cartier_from_json,
    cartier_to_json,
    class_from_json,
    class_to_json,
    complex_from_json,
    complex_to_json,
    cycle_from_json,
    cycle_to_json,
    dumps,
    fan_from_json,
    frac_from_str,
    frac_to_str,
    graph_from_json,
    graph_to_json,
    instance_report,
    matroid_from_json,
    matroid_to_json,
    polynomial_from_json,
    polynomial_to_json,
)
from troprr.matroids import uniform_matroid
from troprr.polyhedra import NEG_INF


def test_fraction_strings():
    assert frac_to_str(Fraction(3, 2)) == "3/2"
    assert frac_to_str(Fraction(4, 2)) == "2"
    assert frac_to_str(NEG_INF) == "-inf"
    assert frac_from_str("3/2") == Fraction(3, 2)
    assert frac_from_str("-5") == -5
    assert frac_from_str("-inf") is NEG_INF
    with pytest.raises(ValueError, match="not a rational"):
        frac_from_str("pi", "$.x")


def test_cycle_round_trip():
    line = tropical_hypersurface(smooth_simplex_polynomial(2, 1))
    data = cycle_to_json(line)
    back = cycle_from_json(data)
    assert back.dim == line.dim
    assert cycle_to_json(back) == data
    assert dumps(data) == dumps(cycle_to_json(back))


def test_complex_schema_diagnostics():
    with pytest.raises(ValueError, match=r"\$\.ambient_dim"):
        complex_from_json({"points": [], "cells": []})
    with pytest.raises(ValueError, match=r"\$\.cells\[0\]\.vertices"):
        complex_from_json({"ambient_dim": 1, "points": [["0"]],
                           "cells": [{"vertices": [5]}]})


def segment_cycle(points=(["0", "0"], ["1", "0"]), cell=None, weights=None, **extra):
    """A one-cell segment complex in R^2, with one field replaced."""
    data = {"ambient_dim": 2, "points": [list(p) for p in points],
            "cells": [cell or {"vertices": [0, 1]}], "weights": weights or {"0": 1}}
    data.update(extra)
    return data


@pytest.mark.parametrize("data, where", [
    (segment_cycle(points=(["-inf", "0"], ["1", "0"])), r"\$\.points\[0\]\[0\]"),
    (segment_cycle(cell={"vertices": []}), r"\$\.cells\[0\]"),
    (segment_cycle(cell={"vertices": [0], "rays": [[0, 0]]}), r"\$\.cells\[0\]"),
    (segment_cycle(cell={"vertices": [0], "rays": [[1]]}), r"\$\.cells\[0\]"),
    (segment_cycle(cell={"vertices": [0], "lineality": [[1, 0, 0]]}), r"\$\.cells\[0\]"),
    (segment_cycle(weights={"3": 1}), r"\$\.weights"),
    (segment_cycle(weights={"-1": 1}), r"\$\.weights"),
    (segment_cycle(dim=0), r"\$\.weights"),
    (segment_cycle(weights={"\u00b2": 1}), r"\$\.weights"),
    (segment_cycle(cell={"vertices": 0}), r"\$\.cells\[0\]\.vertices"),
    (segment_cycle(cell={"vertices": [0], "rays": 1}), r"\$\.cells\[0\]\.rays"),
    (segment_cycle(cell={"vertices": [0, 1], "lineality": None}),
     r"\$\.cells\[0\]\.lineality"),
    (segment_cycle(face_relation=2), r"\$\.face_relation"),
], ids=["neg-inf-point", "no-vertices", "zero-ray", "short-ray", "long-lineality",
        "weight-out-of-range", "negative-cell-index", "wrong-dimension",
        "superscript-cell-index", "vertices-not-a-list", "rays-not-a-list",
        "lineality-not-a-list", "face-relation-not-a-list"])
def test_bad_complex_and_cycle_input_names_its_json_path(data, where):
    with pytest.raises(ValueError, match=rf"^{where}: "):
        cycle_from_json(data)
    if "weights" not in where:
        with pytest.raises(ValueError, match=rf"^{where}: "):
            complex_from_json(data)


def test_cartier_round_trip():
    curve = tropical_hypersurface(smooth_simplex_polynomial(2, 1))
    phi = cartier_from_polynomial(smooth_simplex_polynomial(2, 1), curve)
    data = cartier_to_json(phi)
    back = cartier_from_json(data, phi.cycle)
    assert cartier_to_json(back) == data


def test_matroid_round_trip():
    m = uniform_matroid(2, 4)
    data = matroid_to_json(m)
    assert data["n"] == 4 and len(data["bases"]) == 6
    assert matroid_from_json(data).bases == m.bases


def test_polynomial_round_trip():
    f = smooth_simplex_polynomial(2, 2)
    back = polynomial_from_json(polynomial_to_json(f))
    assert back.terms == f.terms and back.n == f.n


def test_graph_round_trip():
    theta = TropicalCurveGraph(2, [(0, 1), (0, 1), (0, 1)])
    data = graph_to_json(theta, [3, 0])
    graph, divisor = graph_from_json(data)
    assert graph.n == 2 and len(graph.edges) == 3
    assert divisor == [3, 0]


def test_fan_forms():
    assert fan_from_json({"tpn": 2}) == ("tpn", 2)
    kind, rays = fan_from_json({"rays": [[1, 0], [0, 1], [-1, -1]]})
    assert kind == "rays" and rays[2] == (-1, -1)


def test_class_round_trip():
    data = class_to_json({"H": Fraction(2), "0": Fraction(1, 3)})
    assert data == {"coeffs": {"H": "2", "0": "1/3"}}
    assert class_from_json(data)["0"] == Fraction(1, 3)


def test_instance_report_shape():
    rep = instance_report(3, 3, 3, ["smooth", "moderate_position"])
    assert rep["agrees"] is True
    assert rep["hypothesis_flags"] == ["smooth", "moderate_position"]
    bad = instance_report(3, 4, 3)
    assert bad["agrees"] is False
