"""Benchmark of `uqd`: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload mc-average --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With --trace 0 it reports the end-to-end
metrics (setup_s, wall_s, peak_rss_mb); with --trace 1 the per-layer ones.
The workload runs in a process of its own (`worker.py`) with BLAS limited to
as many threads as the machine has cores.  Set-up time is measured on fresh
interpreters that only import `uqd`.  The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the full
record, with every round time, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5
DEADLINE_S = 170.0

# Prints, on the shared monotonic clock, the moment `uqd` has been imported.
PROBE = "import sys, time; sys.path.insert(0, 'src'); import uqd; print(time.monotonic())"


def thread_env() -> dict[str, str]:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = cores
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Process start until `uqd` is imported, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout) - started)
    return times


def environment(env: dict[str, str]) -> dict[str, str]:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "cores": env["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("need --seconds >= 1 and --seed >= 0")

    missing = [p for p in ("src/uqd/__init__.py", "scripts/feasibility_scan.py", "scripts/make_figure_data.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a uqd checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = thread_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    setup = [] if args.trace else setup_seconds(env)

    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--results", str(RESULTS)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=DEADLINE_S - (time.monotonic() - began),
    )
    if worker.returncode != 0:
        print(f"bench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    record = json.loads(worker.stdout.strip().splitlines()[-1])
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)

    metrics = record["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics

    details = dict(record, metrics=metrics, setup_s=setup, workload=args.workload,
                   seed=args.seed, seconds=args.seconds, environment=environment(env))
    (RESULTS / f"result_{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
