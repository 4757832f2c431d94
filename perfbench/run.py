"""troprr's benchmark: seeded verification workloads, timed end to end, with
an outside-in per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs `src/troprr` and nothing
installed. Each pass over the workload's instance list runs in a fresh
interpreter (`worker.py`), one process at a time, so no memo or cached
H-representation survives from one pass to the next. Passes repeat while
the next one is expected to end within S seconds; there is always at least
one, and with `--trace 0` at least MIN_PASSES. With `--trace 1` untraced
and traced passes alternate, and the per-layer metrics come from the traced
ones.

Every identity is checked exactly. The human-readable report comes first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when a
check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("tpn-sweep", "matroid-fans", "cli-verify")

# A run must end within 180 s, whatever --seconds says.
RUN_LIMIT_S = 170
# Untraced passes a run always makes. The tail percentile is chosen for this
# many passes, so it stays the same however many more fit in --seconds.
MIN_PASSES = 5
LADDER = (50, 75, 90, 95, 99, 99.9)
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "instance_s.p50": "s",
                    "instance_s.tail": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def nearest_rank(sorted_values, p: float):
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile of LADDER with at least ten of n samples beyond it
    (p50 when there are too few samples for any)."""
    best = LADDER[0]
    for p in LADDER:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            best = p
    return best


def run_pass(workload: str, seed: int, trace: bool, workdir: Path, timeout: float) -> dict:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if trace else "0", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        from layers import layer_metrics

        with open(workdir / "spans.json") as fh:
            record["layers"] = layer_metrics(json.load(fh), len(record["instance_s"]))
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run passes for about `seconds`; returns (untraced, traced) records."""
    start = time.perf_counter()
    budget = min(seconds, RUN_LIMIT_S)
    passes = {False: [], True: []}
    walls = {False: 0.0, True: 0.0}
    kind = False
    while True:
        t = time.perf_counter()
        remaining = RUN_LIMIT_S - (t - start)
        passes[kind].append(run_pass(workload, seed, kind, workdir, remaining))
        walls[kind] = time.perf_counter() - t
        if trace:
            kind = not kind
        elapsed = time.perf_counter() - start
        missing = not passes[True] if trace else len(passes[False]) < MIN_PASSES
        if not missing and elapsed + walls[kind] > budget:
            break
        if elapsed + walls[kind] > RUN_LIMIT_S:
            raise BenchError("one more pass would outlast the run limit")
    return passes[False], passes[True]


def end_to_end(untraced: list) -> dict:
    """{metric: (value, how it was taken)}."""
    samples = sorted(t for r in untraced for t in r["instance_s"])
    n = len(samples)
    tail = tail_percentile(len(untraced[0]["instance_s"]) * MIN_PASSES)
    k = len(untraced)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in untraced),
                    f"median of {k} set-ups"),
        "sweep_s": (statistics.median(r["sweep_s"] for r in untraced),
                    f"median of {k} passes"),
        "instance_s.p50": (nearest_rank(samples, 50), f"p50 of {n} instance samples"),
        "instance_s.tail": (nearest_rank(samples, tail), f"p{tail:g} of {n} instance samples"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced),
                        f"median of {k} passes"),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """{metric: (value, unit, base text)} from the traced passes."""
    from layers import UNITS

    out = {}
    for name in traced[0]["layers"]:
        value = statistics.median(r["layers"][name][0] for r in traced)
        out[name] = (value, UNITS[name][0], traced[0]["layers"][name][1])
    traced_s = statistics.median(r["sweep_s"] for r in traced)
    untraced_s = statistics.median(r["sweep_s"] for r in untraced)
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio",
                                   f"traced sweep {traced_s:.3f} s / untraced {untraced_s:.3f} s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run kills and reaps the
    # running pass, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "troprr" / "__init__.py").is_file():
        print(f"error: no troprr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # Tracing must not change a single identity value.
    for r in traced:
        attempted += 1
        if r["values"] != untraced[0]["values"]:
            failed += 1
            r["failures"].append("traced pass computed other identity values")
    for r in records:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)

    instances = len(records[0]["instance_s"])
    print(f"workload {args.workload}  seed {args.seed}  {instances} instances per pass,"
          f" {len(untraced)} untraced and {len(traced)} traced passes,"
          " each in a fresh interpreter")
    print(f"  checks_failed_ratio  {failed / attempted:.4g}"
          f"  ({failed} failed / {attempted} attempted)")
    metrics = {}
    if args.trace:
        for name, (value, unit, base) in per_layer(untraced, traced).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:42s} {value:12.6g} {unit}" + (f"  ({base})" if base else ""))
    else:
        for name, (value, how) in end_to_end(untraced).items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:16s} {value:10.4f} {unit:2s}  {how}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
