"""Command-line interface: exit codes, report JSON, and reproducibility."""

import itertools
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from troprr import cli, eulercalc, instances
from troprr.cli import main
from troprr.hypersurface import polynomial_from_heights
from troprr.polyhedra import LatticePolytope, standard_simplex

LINE = ('{"n": 2, "terms": [{"exp": [0,0], "coeff": "0"},'
        ' {"exp": [1,0], "coeff": "0"}, {"exp": [0,1], "coeff": "0"}]}')
THETA = '{"vertices": 2, "edges": [[0,1],[0,1],[0,1]], "divisor": {"0": 3}}'
U24 = '{"n": 4, "bases": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'
SQUARE = '{"vertices": [[0,0],[2,0],[2,1],[0,1]]}'


def test_tpn_passes(capsys):
    assert main(["tpn", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "rr_equals_lattice_count: 6 == 6" in out


@pytest.mark.parametrize("n,d", [(1, 2), (3, 1)])
def test_tpn_reports_uniformity_unchecked_off_the_plane(n, d, capsys):
    assert main(["tpn", str(n), str(d)]) == 2
    assert "[unchecked] hypothesis: relatively_uniform" in capsys.readouterr().out


def test_tpn_rejects_out_of_range():
    assert main(["--max-degree", "2", "tpn", "2", "5"]) == 1
    assert main(["tpn", "4", "1"]) == 1


def test_surface_passes_and_writes_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["--json-out", str(out_path), "surface", SQUARE]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert all(c["agrees"] for c in data["checks"])
    names = {f["name"] for f in data["hypothesis_flags"]}
    assert names == {"delzant", "smooth"}


def test_surface_rejects_non_delzant(capsys):
    assert main(["surface", '{"vertices": [[0,0],[2,0],[0,1]]}']) == 1
    assert "Delzant" in capsys.readouterr().err


def test_bertini_passes(capsys):
    code = main(["--seed", "3", "bertini",
                 '{"vertices": [[0,0],[1,0],[0,1]]}',
                 '{"vertices": [[0,0],[2,0],[0,2]]}'])
    assert code == 0
    assert "chi_difference_equals_rr: 3 == 3" in capsys.readouterr().out


def test_bertini_computes_each_intersection_once(monkeypatch, capsys):
    calls = []
    original = eulercalc.curve_intersection_points

    def counting(f, g):
        calls.append((tuple(sorted(f.terms.items())), tuple(sorted(g.terms.items()))))
        return original(f, g)

    # The name curve_pair draws with and the one eulercalc looks up itself.
    monkeypatch.setattr(eulercalc, "curve_intersection_points", counting)
    monkeypatch.setattr(instances, "curve_intersection_points", counting)
    assert main(["--seed", "3", "bertini",
                 '{"vertices": [[0,0],[1,0],[0,1]]}',
                 '{"vertices": [[0,0],[2,0],[0,2]]}']) == 0
    capsys.readouterr()
    assert calls and len(calls) == len(set(calls))


def test_curve_intersection_builds_the_curve_polytope_once(monkeypatch, capsys):
    """The curve's Newton polytope is built once, by its memoized
    subdivision; curve_intersection_points builds none of its own."""
    built = []
    original_init = LatticePolytope.__init__

    def counting_init(self, points):
        built.append(frozenset(tuple(p) for p in points))
        original_init(self, points)

    per_call = []
    original = eulercalc.curve_intersection_points

    def counting(f, g):
        start = len(built)
        points = original(f, g)
        per_call.append(built[start:].count(frozenset(f.terms)))
        return points

    monkeypatch.setattr(LatticePolytope, "__init__", counting_init)
    monkeypatch.setattr(eulercalc, "curve_intersection_points", counting)
    monkeypatch.setattr(instances, "curve_intersection_points", counting)
    assert main(["--seed", "3", "bertini",
                 '{"vertices": [[0,0],[1,0],[0,1]]}',
                 '{"vertices": [[0,0],[2,0],[0,2]]}']) == 0
    capsys.readouterr()
    assert per_call and all(k == 0 for k in per_call)


def test_curve_passes(capsys):
    assert main(["curve", THETA]) == 0
    assert "graph_riemann_roch: 2 == 2" in capsys.readouterr().out


def test_csm_passes(capsys):
    assert main(["csm", U24]) == 0
    out = capsys.readouterr().out
    assert "beta_deletion_contraction_vs_rank_sum: 2 == 2" in out


def test_hypersurface_emits_cycle(tmp_path, capsys):
    out_path = tmp_path / "cycle.json"
    assert main(["--json-out", str(out_path), "hypersurface", LINE]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["ambient_dim"] == 2 and data["weights"]


def test_euler_passes(capsys):
    assert main(["euler", LINE]) == 0
    assert "chi_c_complement: 0" in capsys.readouterr().out


def test_euler_fails_when_the_paths_miss_the_lattice_count(monkeypatch, capsys):
    # Both power-tower paths one above the count: they agree with each other,
    # but for a smooth f chi(X \ D) is the lattice count.
    original = cli.chi_paths_from_strata
    monkeypatch.setattr(cli, "chi_paths_from_strata",
                        lambda strata, n: tuple(x + 1 for x in original(strata, n)))
    assert main(["euler", LINE]) == 1
    out = capsys.readouterr().out
    assert "[ok ] power_tower_paths" in out
    assert "[FAIL] chi_equals_lattice_count" in out


def test_bad_json_is_a_hard_error(capsys):
    assert main(["curve", '{"vertices": "two"}']) == 1
    assert "error:" in capsys.readouterr().err


def test_reports_are_byte_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--seed", "5", "--json-out", str(p1), "surface", SQUARE]) == 0
    assert main(["--seed", "5", "--json-out", str(p2), "surface", SQUARE]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert main(["tpn"]) == 1
    assert main(["nosuchcommand"]) == 1
    assert main(["tpn", "two", "2"]) == 1
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("polygon,message", [
    ('{"vertices": 5}', "$.vertices: expected a list of integer points"),
    ('{"vertices": []}', "$.vertices: expected a list of integer points"),
    ('{"vertices": [[0, 0], [1, "x"]]}', "$.vertices[1][1]: expected an integer"),
    ('{"vertices": [[0, 0, 0]]}', "$.vertices[0]: expected [int, int]"),
    ('{"points": []}', "$.vertices: expected a list of integer points"),
])
def test_bad_polygon_json_exits_1_with_json_path(polygon, message, capsys):
    assert main(["surface", polygon]) == 1
    assert main(["bertini", SQUARE, polygon]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: {message}") == 2


@pytest.mark.parametrize("commands,data,message", [
    (["curve"], '{"vertices": 0, "edges": []}', "$.vertices: need at least one vertex"),
    (["curve"], '{"vertices": 2, "edges": [[0, 2]]}', "$.edges: edge endpoint out of range"),
    (["curve"], '{"vertices": 2, "edges": []}', "$.edges: the curve graph must be connected"),
    (["curve"], '{"vertices": 2, "edges": [[0, 1]], "divisor": {"\u00b2": 1}}',
     "$.divisor: bad vertex index '\u00b2'"),
    (["csm"], '{"n": 3, "bases": [[1], [1, 2]]}', "$.bases: bases must be equicardinal"),
    (["csm"], '{"n": 2, "bases": [[1, 3]]}', "$.bases: basis outside the ground set"),
    (["csm"], '{"n": 13, "bases": [[1]]}', "$.n: expected 0 <= n <= 12"),
    (["csm"], '{"n": 0, "bases": [[]]}', "$.bases: expected a matroid of positive rank"),
    (["csm"], '{"n": 3, "bases": [[1]]}', "$.bases: expected a loopless matroid, got loops [2, 3]"),
    (["euler", "hypersurface"], '{"n": 2, "terms": [{"exp": [0,0], "coeff": "0"},'
     ' {"exp": [1,0], "coeff": "0"}]}', "$.terms: Newton polytope must be full-dimensional"),
    (["euler", "hypersurface"], '{"n": -1, "terms": [{"exp": [], "coeff": 0}]}',
     "$.n: expected n >= 0"),
    *[(["euler", "hypersurface"], '{"n": 2, "terms": [{"exp": [0,0], "coeff": "0"},'
       ' {"exp": [1,0], "coeff": "%s"}, {"exp": [0,1], "coeff": "0"},'
       ' {"exp": [1,0], "coeff": "%s"}]}' % coeffs,
       "$.terms[3].exp: duplicate exponent [1, 0] (first at $.terms[1])")
      for coeffs in [(5, 0), (0, 5)]],
], ids=["no-vertex", "endpoint", "disconnected", "superscript-index", "unequal-bases",
        "outside-ground", "ground-size", "rank-0", "loops", "not-full-dimensional",
        "negative-n", "repeated-exponent-max-first", "repeated-exponent-max-last"])
def test_invalid_json_input_exits_1_with_json_path(commands, data, message, capsys):
    for command in commands:
        assert main([command, data]) == 1
    assert capsys.readouterr().err.count(f"error: {message}") == len(commands)


def test_bertini_rejects_polygons_with_different_normal_fans(capsys):
    assert main(["bertini", '{"vertices": [[0,0],[1,0],[0,1]]}',
                 '{"vertices": [[0,0],[2,0],[0,1],[2,1]]}']) == 1
    captured = capsys.readouterr()
    assert "error: the polygons of D and D' must share a normal fan" in captured.err
    assert "[FAIL]" not in captured.out


@pytest.mark.parametrize("divisor", ["[1]", '"x"', "[]", "0", '""', "false"])
def test_curve_divisor_that_is_not_an_object_exits_1(divisor, capsys):
    graph = '{"vertices": 2, "edges": [[0,1]], "divisor": %s}' % divisor
    assert main(["curve", graph]) == 1
    assert "error: $.divisor: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("divisor", ["", ', "divisor": null'])
def test_absent_or_null_curve_divisor_is_zero(divisor, capsys):
    assert main(["curve", '{"vertices": 2, "edges": [[0,1]]%s}' % divisor]) == 0
    assert "divisor=[0, 0]" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["euler", "hypersurface"])
def test_minus_infinity_coefficient_exits_1(command, capsys):
    polynomial = '{"n": 2, "terms": [{"exp": [0,0], "coeff": "-inf"}]}'
    assert main([command, polynomial]) == 1
    assert "error: $.terms[0].coeff: expected a finite rational" in capsys.readouterr().err


# -- fuzzing: every subcommand, well-formed and malformed JSON ----------------------

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["x", "-inf", "1/2", "0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["0", "1", "n", "vertices", "edges", "divisor", "bases", "terms", "exp", "coeff"]),
        inner, max_size=3),
    max_leaves=6)


def maybe(strategy):
    """Mostly the well-formed value, one time in five junk in its place."""
    return st.integers(0, 4).flatmap(lambda k: JUNK if k == 4 else strategy)


DELZANT = ['{"vertices": [[0,0],[1,0],[0,1]]}', '{"vertices": [[0,0],[2,0],[0,2]]}',
           '{"vertices": [[0,0],[1,0],[1,1],[0,1]]}', SQUARE]
POLYGON = st.one_of(st.sampled_from(DELZANT), st.fixed_dictionaries({"vertices": maybe(
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), min_size=1, max_size=5))}
).map(json.dumps))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    return json.dumps({
        "vertices": draw(maybe(st.just(n))),
        "edges": draw(maybe(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=4))),
        "divisor": draw(maybe(st.dictionaries(vertex.map(str), st.integers(-1, 3),
                                              max_size=n)))})


@st.composite
def matroids(draw):
    n = draw(st.integers(1, 4))
    bases = [list(b) for b in itertools.combinations(range(1, n + 1), draw(st.integers(1, n)))]
    return json.dumps({"n": draw(maybe(st.just(n))),
                       "bases": draw(maybe(st.sampled_from([bases, bases[:-1]])))})


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    coeff = maybe(st.sampled_from(["0", "1", "-2", "1/2"]))
    return json.dumps({"n": draw(maybe(st.just(n))), "terms": draw(maybe(st.just(
        [{"exp": draw(maybe(st.just(e))), "coeff": draw(coeff)} for e in exps])))})


COMMANDS = st.one_of(
    st.tuples(st.just("tpn"), st.sampled_from(["-1", "1", "2", "3", "x"]),
              st.sampled_from(["0", "1", "2", "3", "x"])),
    st.tuples(st.just("surface"), POLYGON),
    st.tuples(st.just("bertini"), POLYGON, POLYGON),
    st.tuples(st.just("curve"), graphs()),
    st.tuples(st.just("csm"), matroids()),
    st.tuples(st.just("hypersurface"), polynomials()),
    st.tuples(st.just("euler"), polynomials()),
).map(list)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(COMMANDS)
@example(["curve", '{"vertices": 2, "edges": [[0,1]], "divisor": [1]}'])
@example(["curve", '{"vertices": 2, "edges": [[0,1]], "divisor": "x"}'])
@example(["euler", '{"n": 2, "terms": [{"exp": [0,0], "coeff": "-inf"}]}'])
@example(["hypersurface", '{"n": 1, "terms": [{"exp": [1], "coeff": "-inf"}]}'])
def test_every_subcommand_exits_0_1_or_2_on_any_input(argv):
    assert main(["--retries", "3"] + argv) in (0, 1, 2)


GOLDEN = Path(__file__).parent / "golden"
# (argv, exit code); tpn 3 1 exits 2 for its unchecked relatively_uniform flag.
POLYNOMIAL_COMMANDS = [
    pytest.param(["tpn", "2", "2"], 0, id="tpn-2-2"),
    pytest.param(["tpn", "3", "1"], 2, id="tpn-3-1"),
    pytest.param(["euler", str(GOLDEN / "p3_d1_polynomial.json")], 0, id="euler-p3-d1"),
    pytest.param(["euler", str(GOLDEN / "plane_d3_polynomial.json")], 0, id="euler-plane-d3"),
    pytest.param(["hypersurface", str(GOLDEN / "plane_d3_polynomial.json")], 0,
                 id="hypersurface-plane-d3"),
]


@pytest.mark.parametrize("argv,code", POLYNOMIAL_COMMANDS[:4])
def test_tpn_and_euler_build_the_strata_once(argv, code, monkeypatch, capsys):
    calls = []
    original = eulercalc.toric_strata

    def counting(f):
        calls.append(f)
        return original(f)

    # Both the CLI's own name and the one eulercalc's wrappers look up.
    monkeypatch.setattr(eulercalc, "toric_strata", counting)
    monkeypatch.setattr(cli, "toric_strata", counting, raising=False)
    assert main(argv) == code
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv,code", POLYNOMIAL_COMMANDS)
def test_one_subdivision_per_distinct_polynomial_in_a_command(argv, code, subdivision_calls,
                                                              capsys):
    assert main(argv) == code
    capsys.readouterr()
    assert subdivision_calls and len(subdivision_calls) == len(set(subdivision_calls))


def test_tpn_smooth_flag_is_computed(monkeypatch, capsys):
    # All-zero heights on 2*Delta_2: one non-unimodular cell, not smooth.
    pts = standard_simplex(2, 2).lattice_points()
    monkeypatch.setattr(cli, "smooth_simplex_polynomial",
                        lambda n, d: polynomial_from_heights(n, pts, [0] * len(pts)))
    main(["tpn", "2", "2"])
    out = capsys.readouterr().out
    assert "[false] hypothesis: smooth" in out


def readme_command_lines():
    """The troprr-verify lines of the README's command-line code block, with
    backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("troprr-verify")]


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    lines = readme_command_lines()
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(
        (Path(__file__).parent / "golden" / "plane_d3_polynomial.json").read_text())
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) in (0, 2), line
    capsys.readouterr()
    assert json.loads((tmp_path / "cycle.json").read_text())["weights"]
