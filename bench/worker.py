"""Runs one workload in a process of its own and prints one JSON line.

Started by `run.py`; not meant to be run by hand.  It imports `uqd` from the
checkout's `src`, builds the workload's operations from the seed, and
repeats whole rounds of them for the requested time.  Untraced, it reports
the sum of the operations' median times and the process's peak resident
memory.  Traced, it alternates untraced and traced rounds and reports the
per-layer figures of the median traced round.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import pathlib
import resource
import statistics
import sys
import time

import numpy as np

import tracer
import workloads

UQD_MODULES = ("uqd", "uqd.cli", "uqd.fullspace", "uqd.montecarlo", "uqd.povm",
               "uqd.spectral", "uqd.strategy", "uqd.symmetric")
SCRIPTS = ("feasibility_scan", "make_figure_data")
MIN_ROUNDS = 3  # untraced rounds, so that the median drops a warm-up round
MIN_PAIRS = 2  # untraced/traced pairs in a traced run


def load_modules(root: pathlib.Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    modules = {name: importlib.import_module(name) for name in UQD_MODULES}
    for name in SCRIPTS:
        spec = importlib.util.spec_from_file_location(name, root / "scripts" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules


class Runner:
    """Runs rounds of a workload's operations and tallies the outcome."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def round(self) -> list[float]:
        """One pass over every operation; returns the time each call took."""
        times = []
        for op in self.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                times.append(time.perf_counter() - start)
                self.failures.append(f"{op.name} failed: {exc!r}")
                continue
            times.append(time.perf_counter() - start)
            self.problems.extend(op.check(result))
        return times

    def traced_round(self, modules: dict) -> tuple[list[float], tracer.Tracer]:
        spans = tracer.Tracer()
        replaced = tracer.install(spans, modules)
        try:
            times = self.round()
        finally:
            tracer.uninstall(replaced)
        return times, spans


def median_wall(rounds: list[list[float]]) -> float:
    """Sum over operations of each operation's median time across rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=pathlib.Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", type=pathlib.Path, required=True)
    args = parser.parse_args()

    modules = load_modules(args.root)
    stem = f"{args.workload}_seed{args.seed}"
    ctx = workloads.Context(modules, args.results / f"work_{stem}")
    runner = Runner(workloads.WORKLOADS[args.workload](ctx, np.random.default_rng(args.seed)))

    plain: list[list[float]] = []
    traced: list[tuple[list[float], tracer.Tracer]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(runner.round())
        if args.trace:
            traced.append(runner.traced_round(modules))
        last = time.perf_counter() - began
        enough = len(traced) >= MIN_PAIRS if args.trace else len(plain) >= MIN_ROUNDS
        if enough and time.perf_counter() - start + last > args.seconds:
            break

    if args.trace:
        by_wall = sorted(traced, key=lambda item: sum(item[0]))
        times, spans = by_wall[(len(by_wall) - 1) // 2]
        wall = sum(times)
        found = spans.metrics()
        found["trace.wall_s"] = wall
        found["trace.overhead_s"] = median_wall([t for t, _ in traced]) - median_wall(plain)
        metrics = {name: {"value": found.get(name, 0), "unit": unit} for name, unit, _ in tracer.PER_LAYER}
        (args.results / f"spans_{stem}.json").write_text(json.dumps({"wall_s": wall, "spans": spans.to_json()}))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": median_wall(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    print(json.dumps({
        # correct speaks of the operations that did not fail
        "correct": not runner.problems and len(runner.failures) < runner.attempted,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "rounds": {"op_s": plain, "traced_op_s": [t for t, _ in traced]},
        "problems": (runner.failures + runner.problems)[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
