"""The benchmark's seeded workloads, built on troprr's public API.

`build(workload, seed, workdir)` is the set-up phase: it makes the
workload's inputs (polygons, matroids, polynomial files, argument lists)
and returns the instance list. Each instance is `(label, run)`; `run()`
does the timed work and returns the identity checks it made as
`(name, left, right)` triples, every one an exact equality.

The seed only chooses inputs: the polynomial seeds, the curve-pair and
`--seed` values, the graphs and the `surface` polygon. Which degrees,
matroids and subcommands a workload covers does not depend on it, so every
seed does about the same work. The same seed always gives the same instance
list.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import comb

from troprr import jsonio
from troprr.cli import main as cli_main
from troprr.cycles import check_balancing, power_tower
from troprr.eulercalc import chi_c_from_strata, chi_paths_from_strata, toric_strata
from troprr.hypersurface import (
    TropicalPolynomial,
    random_smooth_polynomial,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from troprr.instances import delzant_catalogue
from troprr.matroids import (
    beta,
    beta_by_rank_sum,
    bergman_fan,
    csm_cycle,
    graphic_matroid,
    uniform_matroid,
)
from troprr.polyhedra import cone_in_union, standard_simplex
from troprr.toric import ProjectiveSpace

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed the same way in every process.
    return random.Random(f"{workload}:{seed}")


def _draw(rng: random.Random) -> int:
    return rng.randrange(10 ** 6)


# -- tpn-sweep -----------------------------------------------------------------------


def _tpn_instance(n: int, d: int, poly_seed: int | None):
    def run():
        checks = []
        if poly_seed is None:
            f = smooth_simplex_polynomial(n, d)
        else:
            pts = standard_simplex(n, d).lattice_points()
            checks.append(("lattice_points", len(pts), comb(n + d, n)))
            f = random_smooth_polynomial(pts, poly_seed)
        strata = toric_strata(f)
        path_a, path_b = chi_paths_from_strata(strata, n)
        chi_c = chi_c_from_strata(strata)
        space = ProjectiveSpace(n)
        count = comb(n + d, n)
        interior = (-1) ** n * comb(d - 1, n)
        checks += [
            ("rr_equals_lattice_count", space.rr_number(d), count),
            ("chi_path_a", path_a, count),
            ("chi_path_b", path_b, count),
            ("dual_rr_equals_interior", space.rr_number(-d), interior),
            ("chi_c_equals_interior", chi_c, interior),
        ]
        return checks

    tag = "alcove" if poly_seed is None else f"seed={poly_seed}"
    return f"tpn n={n} d={d} {tag}", run


def _tpn_sweep(rng, workdir):
    """Criterion 1/2 family. n = 1 and n = 3 use the fixed alcove
    polynomials; the seed draws the n = 2 polynomials. 3*Delta_3 is left
    out: alone it takes longer than a whole pass may."""
    out = [_tpn_instance(1, d, None) for d in range(1, 8)]
    out += [_tpn_instance(2, d, _draw(rng)) for d in range(1, 5)]
    out += [_tpn_instance(3, d, None) for d in (1, 2)]
    return out


# -- matroid-fans ----------------------------------------------------------------------


def _matroid_checks(m, expected_beta: int | None):
    r = m.rank(m.ground)
    checks = [("bergman_balanced", check_balancing(bergman_fan(m)).ok, True)]
    for k in range(r):
        checks.append((f"csm_{k}_balanced", check_balancing(csm_cycle(m, k)).ok, True))
    top = csm_cycle(m, r - 1)
    checks.append(("csm_top_weights_one", sorted(set(top.weights.values())), [1]))
    b = beta(m)
    checks.append(("beta_deletion_contraction_vs_rank_sum", b, beta_by_rank_sum(m)))
    if expected_beta is not None:
        checks.append(("beta_binomial", b, expected_beta))
    return [(f"{m!r} {name}", left, right) for name, left, right in checks]


def _matroid_instance(label: str, cases):
    """cases: (matroid, expected beta or None) pairs."""
    def run():
        return [c for m, expected in cases for c in _matroid_checks(m, expected)]

    return label, run


def _beta_binomials():
    def run():
        return [(f"beta U({r},{n})", beta(uniform_matroid(r, n)), comb(n - 2, r - 1))
                for n in range(2, 8) for r in range(1, n + 1)]

    return "beta binomials n<=7", run


def _support_instance(r: int):
    """Criterion 7's support identity at rank r: the j-th power of the
    hyperplane in R^r has the support of the Bergman fan of U(r-j, r+1)."""
    def run():
        terms = {tuple(0 for _ in range(r)): Fraction(0)}
        for i in range(r):
            terms[tuple(1 if j == i else 0 for j in range(r))] = Fraction(0)
        f = TropicalPolynomial(r, terms)
        tower = power_tower(f, tropical_hypersurface(f))
        checks = [("tower_layers", len(tower.layers), r)]
        for j in range(r):
            layer = tower.layers[j]
            weighted = [layer.complex.cells[i] for i in layer.weights]
            checks.append((f"layer_{j}_cells", len(weighted), comb(r + 1, j + 2)))
            berg = bergman_fan(uniform_matroid(r - j, r + 1))
            cones = [berg.complex.cells[i] for i in berg.weights]
            checks.append((f"layer_{j}_covers_fan", all(
                any(c.contains_polyhedron(cone) for c in weighted)
                for cone in cones), True))
            checks.append((f"layer_{j}_inside_fan",
                           all(cone_in_union(c, cones) for c in weighted), True))
        return checks

    return f"support identity rank={r}", run


def _matroid_fans(rng, workdir):
    """Criterion 7 without its two largest cases (rank 5: U(5,6), U(5,7)
    and the rank-5 support identity), which alone outlast a pass. One
    instance covers the uniform matroids on one ground set, so that the
    instances are few and far apart in size and the percentiles stay put.
    Nothing here is seeded: the criterion has no random inputs."""
    out = [_matroid_instance(f"U(r,{n}) for r = 1..{min(n - 1, 4)}",
                             [(uniform_matroid(r, n), comb(n - 2, r - 1))
                              for r in range(1, min(n, 5))])
           for n in range(2, 8)]
    out.append(_matroid_instance("graphic K4", [(graphic_matroid(K4_EDGES), None)]))
    out.append(_beta_binomials())
    out += [_support_instance(r) for r in (2, 3, 4)]
    return out


# -- cli-verify ------------------------------------------------------------------------


def _cli_instance(argv: list[str], json_out: str):
    """One `troprr-verify` invocation, in process, with stdout captured. Every
    rendered check line and every `checks[].agrees` of the JSON report must
    hold, and the exit code must be 0 or 2 (hypothesis flags are not gated
    on)."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["--json-out", json_out] + argv)
        checks = [("exit_code_0_or_2", code in (0, 2), True)]
        for line in buf.getvalue().splitlines():
            line = line.strip()
            if line.startswith("[ok ]") or line.startswith("[FAIL]"):
                checks.append((line, line.startswith("[ok ]"), True))
        with open(json_out) as fh:
            report = json.load(fh)
        for c in report.get("checks", []):
            checks.append((f"json {c['name']}", c["agrees"], True))
        if "agrees" in report:
            checks.append(("json agrees", report["agrees"], True))
        return checks

    return "troprr-verify " + " ".join(argv), run


def _random_graph(rng: random.Random, n: int) -> str:
    """Connected multigraph on n vertices (a random tree plus a few extra
    edges, loops allowed) with a small effective divisor, as graph JSON."""
    edges = [[i, rng.randrange(i)] for i in range(1, n)]
    edges += [[rng.randrange(n), rng.randrange(n)] for _ in range(rng.randint(2, 3))]
    divisor = {str(v): rng.randint(1, 2) for v in range(n) if rng.random() < 0.5}
    return json.dumps({"vertices": n, "edges": edges, "divisor": divisor})


def _cli_verify(rng, workdir):
    """The README subcommands. The seed picks the surface polygon, every
    --seed, the graphs and the plane polynomial."""
    def path(name):
        return os.path.join(workdir, name)

    plane = random_smooth_polynomial(standard_simplex(2, 2).lattice_points(), _draw(rng))
    space = smooth_simplex_polynomial(3, 1)
    for name, f in (("plane.json", plane), ("space.json", space)):
        with open(path(name), "w") as fh:
            fh.write(jsonio.dumps(jsonio.polynomial_to_json(f)))
    # Catalogue polygons of one size, so the choice barely changes the work.
    six = [q for q in delzant_catalogue() if len(q.lattice_points()) == 6]
    polygon = json.dumps({"vertices": [list(v) for v in rng.choice(six).vertices]})
    tri1 = '{"vertices": [[0,0],[1,0],[0,1]]}'
    k4 = jsonio.matroid_to_json(graphic_matroid(K4_EDGES))
    commands = [
        ["tpn", "1", "4"],
        ["tpn", "2", "2"],
        ["tpn", "2", "3"],
        ["tpn", "3", "1"],
        ["--seed", str(_draw(rng)), "surface", polygon],
        ["--seed", str(_draw(rng)), "bertini", tri1, tri1],
        ["curve", '{"vertices": 2, "edges": [[0,1],[0,1],[0,1]], "divisor": {"0": 3}}'],
        ["curve", _random_graph(rng, 6)],
        ["curve", _random_graph(rng, 6)],
        ["csm", '{"n": 4, "bases": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'],
        ["csm", json.dumps(k4)],
        ["hypersurface", path("plane.json")],
        ["euler", path("plane.json")],
        ["hypersurface", path("space.json")],
        ["euler", path("space.json")],
    ]
    return [_cli_instance(argv, path(f"out{i}.json")) for i, argv in enumerate(commands)]


GENERATORS = {
    "tpn-sweep": _tpn_sweep,
    "matroid-fans": _matroid_fans,
    "cli-verify": _cli_verify,
}


def build(workload: str, seed: int, workdir: str):
    """Set-up: the workload's inputs and its instance list, from the seed."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](_rng(workload, seed), workdir)
