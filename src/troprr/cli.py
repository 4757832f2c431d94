"""Command-line front end: reproducible instance generation, JSON ingest and
emit, and the verification suites binding the geometry, matroid, curve, and
intersection-ring modules together.

Exit codes: 0 when every asserted equality holds and every hypothesis flag is
satisfied; 2 when the equalities hold but some hypothesis is unverified;
1 for hard errors (bad input, a usage error, a failed equality)."""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from . import jsonio
from .curves import (
    baker_norine_rank,
    divisor_degree,
    rr_number_curve,
)
from .cycles import check_balancing
from .eulercalc import chi_c_from_strata, chi_paths_from_strata, toric_strata
from .hypersurface import (
    _subdivision_of,
    is_smooth,
    smooth_simplex_polynomial,
    tropical_hypersurface,
)
from .instances import (
    curve_pair,
    curve_pair_moderate,
    sample_uniformity,
    verify_curve_pair,
    verify_polygon,
)
from .matroids import beta, beta_by_rank_sum, bergman_fan, csm_cycle
from .toric import ProjectiveSpace, is_delzant


def _load_json(arg: str, what: str):
    """Accept inline JSON, a file path, or '-' for stdin."""
    try:
        if arg == "-":
            return json.load(sys.stdin)
        if arg.lstrip().startswith("{"):
            return json.loads(arg)
        with open(arg) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


class Report:
    """Order-deterministic verification report: named equality checks plus
    hypothesis flags, rendered as a table and as byte-stable JSON."""

    def __init__(self, instance: str, seed: int):
        self.instance = instance
        self.seed = seed
        self.checks = []
        self.flags = []

    def check(self, name: str, left, right):
        self.checks.append({"name": name, "left": left, "right": right,
                            "agrees": left == right})

    def flag(self, name: str, status: str):
        self.flags.append({"name": name, "status": status})

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "seed": self.seed,
            "checks": sorted(self.checks, key=lambda c: c["name"]),
            "hypothesis_flags": sorted(self.flags, key=lambda f: f["name"]),
        }

    def exit_code(self) -> int:
        if not all(c["agrees"] for c in self.checks):
            return 1
        if not all(f["status"] == "true" for f in self.flags):
            return 2
        return 0

    def render(self) -> str:
        lines = [f"instance: {self.instance} (seed {self.seed})"]
        for c in sorted(self.checks, key=lambda c: c["name"]):
            mark = "ok " if c["agrees"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}: {c['left']} == {c['right']}")
        for f in sorted(self.flags, key=lambda f: f["name"]):
            lines.append(f"  [{f['status']}] hypothesis: {f['name']}")
        return "\n".join(lines)


def _finish(report: Report, args) -> int:
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(jsonio.dumps(report.to_json()))
    return report.exit_code()


# -- subcommands --------------------------------------------------------------------


def cmd_tpn(args) -> int:
    n, d = args.n, args.d
    if not 1 <= n <= 3 or not 1 <= d <= args.max_degree:
        raise ValueError(f"need 1 <= n <= 3 and 1 <= d <= {args.max_degree}")
    report = Report(f"tpn n={n} d={d}", args.seed)
    f = smooth_simplex_polynomial(n, d)
    rr = ProjectiveSpace(n).rr_number(d)
    count = comb(n + d, n)
    strata = toric_strata(f)
    a, b = chi_paths_from_strata(strata, n)
    report.check("rr_equals_lattice_count", rr, count)
    report.check("chi_path_sum_of_layers", a, count)
    report.check("chi_path_weighted_differences", b, count)
    report.check("dual_rr_equals_chi_c",
                 ProjectiveSpace(n).rr_number(-d), chi_c_from_strata(strata))
    report.flag("smooth", "true" if is_smooth(f) else "false")
    # Relative uniformity is checked at the curve vertices of the plane only.
    statuses = [r.status for r in sample_uniformity(f)] if n == 2 else ["unchecked"]
    report.flag("relatively_uniform",
                next((s for s in statuses if s != "true"), "true"))
    return _finish(report, args)


def cmd_surface(args) -> int:
    q = jsonio.polygon_from_json(_load_json(args.polygon, "polygon JSON"))
    if not is_delzant(q):
        raise ValueError("the polygon is not Delzant")
    report = Report(f"surface polygon={list(q.vertices)}", args.seed)
    rec = verify_polygon(q, args.seed)
    report.check("rr_equals_chi_complement", rec.rr, rec.chi)
    report.check("chi_equals_lattice_count", rec.chi, rec.lattice_count)
    report.check("pick_oracle", rec.lattice_count, rec.pick_count)
    report.check("power_tower_paths", rec.paths[0], rec.paths[1])
    report.flag("delzant", "true")
    report.flag("smooth", "true")
    return _finish(report, args)


def cmd_bertini(args) -> int:
    q1 = jsonio.polygon_from_json(_load_json(args.polygon_d, "polygon JSON for D"))
    q2 = jsonio.polygon_from_json(_load_json(args.polygon_dp, "polygon JSON for D'"))
    for q in (q1, q2):
        if not is_delzant(q):
            raise ValueError("both polygons must be Delzant")
    report = Report(
        f"bertini D={list(q1.vertices)} D'={list(q2.vertices)}", args.seed)
    pair = curve_pair(q1, q2, args.seed, retries=args.retries)
    lhs, rhs = verify_curve_pair(pair)
    report.check("chi_difference_equals_rr", lhs, rhs)
    report.flag("moderate_position", curve_pair_moderate(pair))
    report.flag("smooth", "true")
    return _finish(report, args)


def cmd_curve(args) -> int:
    graph, divisor = jsonio.graph_from_json(_load_json(args.graph, "graph JSON"))
    report = Report(
        f"curve vertices={graph.n} edges={len(graph.edges)} divisor={divisor}",
        args.seed)
    g = graph.genus()
    k = graph.canonical_divisor()
    r_d = baker_norine_rank(graph, divisor)
    r_kd = baker_norine_rank(graph, [a - b for a, b in zip(k, divisor)])
    report.check("graph_riemann_roch", r_d - r_kd,
                 divisor_degree(divisor) + 1 - g)
    report.check("rr_number", rr_number_curve(graph, divisor),
                 divisor_degree(divisor) + graph.euler_characteristic())
    report.flag("effective_divisor",
                "true" if all(c >= 0 for c in divisor) else "false")
    return _finish(report, args)


def cmd_csm(args) -> int:
    m = jsonio.matroid_from_json(_load_json(args.matroid, "matroid JSON"))
    report = Report(f"csm matroid n={m.n} rank={m.rank(m.ground)}", args.seed)
    fan = bergman_fan(m)
    report.check("bergman_balanced", check_balancing(fan).ok, True)
    r = m.rank(m.ground)
    for k in range(r):
        ck = csm_cycle(m, k)
        report.check(f"csm_{k}_balanced", check_balancing(ck).ok, True)
    top = csm_cycle(m, r - 1)
    report.check("csm_top_weights_one", sorted(set(top.weights.values())), [1])
    report.check("beta_deletion_contraction_vs_rank_sum",
                 beta(m), beta_by_rank_sum(m))
    report.flag("loopless", "true" if not m.loops() else "false")
    return _finish(report, args)


def cmd_hypersurface(args) -> int:
    f = jsonio.polynomial_from_json(_load_json(args.polynomial, "polynomial JSON"))
    report = Report(f"hypersurface n={f.n} terms={len(f.terms)}", args.seed)
    cycle = tropical_hypersurface(f)
    report.check("balanced", check_balancing(cycle).ok, True)
    report.flag("smooth",
                "true" if cycle.subdivision.is_smooth() else "false")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(jsonio.dumps(jsonio.cycle_to_json(cycle)))
        print(report.render())
        return report.exit_code()
    return _finish(report, args)


def cmd_euler(args) -> int:
    f = jsonio.polynomial_from_json(_load_json(args.polynomial, "polynomial JSON"))
    report = Report(f"euler n={f.n} terms={len(f.terms)}", args.seed)
    sub = _subdivision_of(f)
    strata = toric_strata(f)
    a, b = chi_paths_from_strata(strata, f.n)
    report.check("power_tower_paths", a, b)
    # chi(X \ D) is the lattice count only for smooth f. The flag, and for a
    # smooth f the comparison with the count, are listed only when they
    # fail, so the report of a smooth f keeps its form.
    count = len(sub.polytope.lattice_points())
    if not sub.is_smooth():
        report.flag("smooth", "false")
    elif a != count:
        report.check("chi_equals_lattice_count", a, count)
    rep = jsonio.instance_report(a, b, count,
                                 [f["name"] for f in report.flags])
    print(report.render())
    print(f"  chi_c_complement: {chi_c_from_strata(strata)}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(jsonio.dumps(rep))
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troprr-verify",
        description="Exact verification suites for tropical Riemann-Roch "
                    "numbers, Euler characteristics, and intersection theory.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized instances")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="write the report (or cycle) as JSON to PATH")
    parser.add_argument("--max-degree", type=int, default=6,
                        help="largest allowed degree for generated instances")
    parser.add_argument("--retries", type=int, default=25,
                        help="retry budget for genericity re-seeding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tpn", help="projective-space identity checks")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_tpn)

    p = sub.add_parser("surface", help="three-way polygon check")
    p.add_argument("polygon", help="polygon JSON: {\"vertices\": [[x,y],...]}")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("bertini", help="curve-pair complement check")
    p.add_argument("polygon_d", help="polygon JSON for D")
    p.add_argument("polygon_dp", help="polygon JSON for D'")
    p.set_defaults(func=cmd_bertini)

    p = sub.add_parser("curve", help="graph curve suite")
    p.add_argument("graph", help="graph JSON")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("csm", help="matroid fan suite")
    p.add_argument("matroid", help="matroid JSON")
    p.set_defaults(func=cmd_csm)

    p = sub.add_parser("hypersurface", help="build and check a hypersurface")
    p.add_argument("polynomial", help="polynomial JSON")
    p.set_defaults(func=cmd_hypersurface)

    p = sub.add_parser("euler", help="complement Euler characteristics")
    p.add_argument("polynomial", help="polynomial JSON")
    p.set_defaults(func=cmd_euler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code this tool keeps for an
        # unverified hypothesis; a usage error is a hard error. --help still
        # exits 0.
        if exc.code in (0, None):
            raise
        return 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
