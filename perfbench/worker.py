"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

Run by `run.py`, with `src` and `perfbench` on PYTHONPATH. Set-up (import
troprr, build the inputs) is timed from the first line of this file. The
instances then run one after another, a closed loop in one thread. With
TRACE = 1 the tracer is installed after set-up and its spans are written to
WORKDIR/spans.json. The last line of standard output is the pass record as
JSON.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def run_pass(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    instances = workloads.build(workload, seed, workdir)
    setup_s = time.perf_counter() - _T_START
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install([workloads])
    times, values, failures = [], [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    for label, run in instances:
        start = time.perf_counter()
        try:
            checks = run()
        except Exception:  # a raised check counts as one failed check
            checks = [("raised", traceback.format_exc(limit=3), None)]
        times.append(time.perf_counter() - start)
        for name, left, right in checks:
            attempted += 1
            values.append([label, name, repr(left), repr(right)])
            if left != right:
                failed += 1
                failures.append(f"{label}: {name}: {left!r} != {right!r}")
    sweep_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(workdir, "spans.json"), t0)
    return {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "instance_s": times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": values,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    workload, seed, trace, workdir = sys.argv[1:5]
    print(json.dumps(run_pass(workload, int(seed), trace == "1", workdir)))
