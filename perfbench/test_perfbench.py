"""Self-tests of the benchmark: seeding, tracing and the run contract.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def labels(workload, seed, workdir):
    return [label for label, _ in workloads.build(workload, seed, str(workdir))]


def cheap(instances, limit):
    """The instances whose label names no known-heavy input."""
    heavy = ("n=3", "rank=4", "U(r,6)", "U(r,7)", "bertini", "euler", "tpn 2 3")
    return [i for i in instances if not any(h in i[0] for h in heavy)][:limit]


def run_instances(instances):
    return [[label, name, repr(a), repr(b)]
            for label, fn in instances for name, a, b in fn()]


def test_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.UNITS.items()]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_gives_one_instance_list(workload, tmp_path):
    first = labels(workload, 7, tmp_path)
    assert first == labels(workload, 7, tmp_path)
    # The same in a fresh interpreter with another hash seed.
    code = (f"import workloads; print(repr([l for l, _ in "
            f"workloads.build({workload!r}, 7, {str(tmp_path)!r})]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert eval(out) == first


def test_another_seed_changes_the_seeded_instances(tmp_path):
    a, b = (labels("tpn-sweep", s, tmp_path) for s in (1, 2))
    assert [x for x in a if "n=2" in x] != [x for x in b if "n=2" in x]
    assert [x for x in a if "n=2" not in x] == [x for x in b if "n=2" not in x]

    a, b = (labels("cli-verify", s, tmp_path / str(s)) for s in (1, 2))
    for kind in ("curve {\"vertices\": 6", "--seed"):
        assert [x for x in a if kind in x] != [x for x in b if kind in x]
    planes = [(tmp_path / str(s) / "plane.json").read_text() for s in (1, 2)]
    assert planes[0] != planes[1]


def test_traced_and_untraced_values_agree_and_spans_add_up(tmp_path):
    instances = (cheap(workloads.build("tpn-sweep", 3, str(tmp_path)), 9)
                 + cheap(workloads.build("matroid-fans", 3, str(tmp_path)), 8)
                 + cheap(workloads.build("cli-verify", 3, str(tmp_path)), 6))
    plain = run_instances(instances)
    originals = dict(vars(workloads))
    tr = tracer_mod.Tracer().install([workloads])
    try:
        t0 = time.perf_counter()
        traced = run_instances(instances)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert traced == plain
    assert dict(vars(workloads)) == originals

    path = tmp_path / "spans.json"
    tr.write(str(path), t0)
    data = json.loads(path.read_text())
    assert len(data["name"]) > 1000
    own = layers.self_times(data)
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    metrics = layers.layer_metrics(data, len(instances))
    assert set(metrics) | {"trace.overhead_ratio"} == set(layers.UNITS)
    assert metrics["polyhedra.hrep.calls"][0] >= metrics["polyhedra.hrep.computed"][0] > 0
    assert metrics["matroids.bergman_complex.calls"][0] > 0
    assert metrics["jsonio.bytes_out"][0] > 0


def test_leaf_helpers_are_not_wrapped():
    names = {name for mod in tracer_mod.MODULES for _, _, name in tracer_mod._targets(mod)}
    assert "linalg.rref" in names and "polyhedra.Polyhedron.hrep" in names
    assert not {"linalg.vdot", "linalg.vadd", "linalg.primitive"} & names


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(12) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    values = list(range(1, 41))
    assert run.nearest_rank(values, 75) == 30
    assert run.nearest_rank(values, 50) == 20


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark's files, the run exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpn-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
