"""Record a BENCH file: every workload on several seeds, one run at a time.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BENCH_0.json

The workloads and the run length come from BENCHMARK.json. For each
workload it makes one untraced run per seed and one traced run on the first
seed, and stores every value with its median, its quartiles and their
distance as a share of the median (the spread), plus the git commit, the
Python version and the number of CPUs. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = one_run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                                      unit=runs[0]["metrics"][name]["unit"])
                           for name in runs[0]["metrics"]},
            "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]},
        }
        for name, s in record["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4f} spread {s['spread']:.3f}")
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
