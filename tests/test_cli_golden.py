"""Golden CLI reports and demo outputs: the stdout and the --json-out bytes of
the fast README commands, and the stdout of every script under demos/, are
pinned, so that a refactor of the engine cannot change a report.

Regenerate the files under tests/golden/ with
``PYTHONPATH=src python tests/test_cli_golden.py`` (only when a report is
meant to change)."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from troprr.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
U24 = '{"n": 4, "bases": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'

# name -> (argv after "--json-out PATH", exit code); "@file" names an input
# under golden/.
CASES = {
    "csm_u24": (["csm", U24], 0),
    "csm_k4": (["csm", "@k4_matroid.json"], 0),
    "tpn_2_2": (["tpn", "2", "2"], 0),
    "hypersurface_p3_d1": (["hypersurface", "@p3_d1_polynomial.json"], 0),
    # Relative uniformity is not checked for n = 3: the flag is unchecked.
    "tpn_3_1": (["tpn", "3", "1"], 2),
    "euler_p3_d1": (["euler", "@p3_d1_polynomial.json"], 0),
    "euler_plane_d3": (["euler", "@plane_d3_polynomial.json"], 0),
    # Tied heights: two unit squares among the maximal cells, so the smooth
    # flag fails (chi is not the lattice count).
    "euler_plane_tied": (["euler", "@plane_tied_polynomial.json"], 2),
    # The remaining README lines; tpn_2_3 reaches H->V through local_cone.
    "tpn_2_3": (["tpn", "2", "3"], 0),
    "surface_rectangle": (["surface", '{"vertices": [[0,0],[2,0],[2,1],[0,1]]}'], 0),
    "bertini_seed3": (["--seed", "3", "bertini", '{"vertices": [[0,0],[1,0],[0,1]]}',
                       '{"vertices": [[0,0],[2,0],[0,2]]}'], 0),
    "curve_banana": (["curve", '{"vertices": 2, "edges": [[0,1],[0,1],[0,1]], '
                               '"divisor": {"0": 3}}'], 0),
}


def _argv(name, json_out):
    args = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in CASES[name][0]]
    return ["--json-out", str(json_out)] + args


def _run(name, json_out):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_argv(name, json_out))
    return code, buf.getvalue()


def _run_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buf = io.StringIO()
    with redirect_stdout(buf):
        module.main()
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path):
    json_out = tmp_path / "out.json"
    code, stdout = _run(name, json_out)
    assert code == CASES[name][1]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    assert json_out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(path):
    assert _run_demo(path) == (GOLDEN / f"demo_{path.stem}.stdout").read_text()


if __name__ == "__main__":
    for case in sorted(CASES):
        out = GOLDEN / f"{case}.json"
        code, stdout = _run(case, out)
        if code != CASES[case][1]:
            sys.exit(f"{case}: exit code {code}, expected {CASES[case][1]}")
        (GOLDEN / f"{case}.stdout").write_text(stdout)
    for path in DEMOS:
        (GOLDEN / f"demo_{path.stem}.stdout").write_text(_run_demo(path))
