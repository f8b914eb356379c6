"""The four workloads: inputs drawn from the seed, calls into `uqd`, checks.

A workload is a list of operations.  Each operation is one call a user makes
(a CLI subcommand through `uqd.cli.main`, a script's `main`, or a public
library call) plus a check of its output against `reference`.  The inputs
are drawn once per run, so every round repeats exactly the same calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np

import reference as ref

# Statistical checks allow Z standard errors.  With about a dozen seeded
# statistical checks per seed and every later change running dozens of
# seeds, a 4-sigma bound (two-sided 6e-5 per check) would report a correct
# program as wrong about once in thirty changes; 5 sigma (6e-7) keeps that
# below one in a thousand while a bias of a few standard errors still fails.
Z = 5.0
TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One call into `uqd` and the check of its result.

    `check` returns a list of problems, empty when the output is correct.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Context:
    """What a workload needs from the worker: the loaded modules and a
    directory for the files the calls write."""

    modules: dict[str, ModuleType]
    work_dir: pathlib.Path


def run_cli(module: ModuleType, argv: list[str]) -> str:
    """Run a `main(argv)` entry point as its command line would, and return
    its standard output; a non-zero exit code is a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = module.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _num(x: float) -> str:
    return repr(float(x))


def _bloch_angles(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points on the Bloch sphere: cos(theta) and phi uniform."""
    u = rng.random((count, 2))
    return np.arccos(2.0 * u[:, 0] - 1.0), 2.0 * math.pi * u[:, 1]


def _prior(rng: np.random.Generator, n: int, kind: str) -> float:
    """A prior in the POVM window, or outside it on a side the seed picks,
    kept clear of the window edges by 5% of the available interval."""
    low, high = ref.validity_window(n)
    u = rng.uniform(0.05, 0.95)
    if kind == "povm":
        return low + (high - low) * u
    if rng.random() < 0.5:
        return low * u
    return high + (1.0 - high) * u


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, expected {want!r} (tol {tol:g})"]


# ---------------------------------------------------------------- mc-average

MC_LADDER = (1, 2, 3, 5, 8, 12, 20, 30)
MC_SAMPLES = 20_000
MC_LARGE = (1, 1_000_000)
PAIR_SAMPLE = 1_000
SIM_N = 16
SIM_SHOTS = 200_000


def _montecarlo_op(ctx: Context, n: int, eta1: float, samples: int, seed: int) -> Op:
    argv = ["montecarlo", "--n", str(n), "--eta1", _num(eta1),
            "--samples", str(samples), "--seed", str(seed)]
    c1, c2 = ref.optimal_scales(n, eta1)
    target = ref.average_success(n, eta1, c1, c2)

    def check(stdout: str) -> list[str]:
        report = json.loads(stdout)
        problems = _close("c1", report["c1"], c1, 1e-12) + _close("c2", report["c2"], c2, 1e-12)
        if report["regime"] != ref.regime(n, eta1):
            problems.append(f"regime {report['regime']}, expected {ref.regime(n, eta1)}")
        if report["samples"] != samples or report["error_events"] != 0:
            problems.append(f"samples {report['samples']}, error_events {report['error_events']}")
        problems += _close("mean_success", report["mean_success"], target, Z * report["std_error"])
        return [f"montecarlo n={n} eta1={eta1}: {p}" for p in problems]

    return Op(f"montecarlo n={n}", lambda: run_cli(ctx.modules["uqd.cli"], argv), check)


def _pair_op(ctx: Context, rng: np.random.Generator, n: int, eta1: float) -> Op:
    povm = ctx.modules["uqd.povm"]
    c1, c2 = ref.optimal_scales(n, eta1)
    params = povm.PovmParams(c1, c2)
    theta1, phi1 = _bloch_angles(rng, PAIR_SAMPLE)
    theta2, phi2 = _bloch_angles(rng, PAIR_SAMPLE)
    fid = ref.fidelity(theta1, phi1, theta2, phi2)

    def call():
        return povm.batch_success_probabilities(n, params, theta1, phi1, theta2, phi2)

    def check(result) -> list[str]:
        p1, p2, leak1, leak2 = result
        problems = []
        for name, got, want in (
            ("p1", p1, ref.pair_success(n, c1, fid)),
            ("p2", p2, ref.pair_success(n, c2, fid)),
            ("leak1", leak1, 0.0),
            ("leak2", leak2, 0.0),
        ):
            worst = float(np.max(np.abs(got - want)))
            if worst > TOL:
                problems.append(f"pairs n={n}: {name} off by {worst:.3e}")
        return problems

    return Op(f"batch_success_probabilities n={n}", call, check)


def _simulate_op(ctx: Context, rng: np.random.Generator) -> Op:
    mc = ctx.modules["uqd.montecarlo"]
    symmetric = ctx.modules["uqd.symmetric"]
    strategy = ctx.modules["uqd.strategy"]
    n = SIM_N
    eta1 = _prior(rng, n, "povm")
    theta, phi = _bloch_angles(rng, 2)
    psi1 = symmetric.BlochQubit(theta[0], phi[0])
    psi2 = symmetric.BlochQubit(theta[1], phi[1])
    config = strategy.DiscriminatorConfig(n, eta1)
    seed = int(rng.integers(2**31))
    c1, c2 = ref.optimal_scales(n, eta1)
    fid = float(ref.fidelity(theta[0], phi[0], theta[1], phi[1]))
    want1 = eta1 * ref.pair_success(n, c1, fid)
    want2 = (1.0 - eta1) * ref.pair_success(n, c2, fid)

    def check(counts) -> list[str]:
        problems = []
        if counts.identify1 + counts.identify2 + counts.fail != SIM_SHOTS or counts.shots != SIM_SHOTS:
            problems.append(f"counts {counts.to_dict()} do not sum to {SIM_SHOTS}")
        if counts.error_events != 0:
            problems.append(f"{counts.error_events} misidentifications")
        for name, got, p in (("identify1", counts.identify1, want1), ("identify2", counts.identify2, want2)):
            if not ref.binomial_deviation_ok(got, SIM_SHOTS, p, Z):
                problems.append(f"{name}={got}, expected {SIM_SHOTS * p:.1f}")
        return [f"simulate_outcomes n={n}: {p}" for p in problems]

    return Op(
        f"simulate_outcomes n={n}",
        lambda: mc.simulate_outcomes(psi1, psi2, config, SIM_SHOTS, seed),
        check,
    )


def mc_average(ctx: Context, rng: np.random.Generator) -> list[Op]:
    ops = []
    for i, n in enumerate(MC_LADDER):
        eta1 = _prior(rng, n, "povm" if i % 2 == 0 else "vn")
        ops.append(_montecarlo_op(ctx, n, eta1, MC_SAMPLES, int(rng.integers(2**31))))
        ops.append(_pair_op(ctx, rng, n, eta1))
    n, samples = MC_LARGE
    ops.append(_montecarlo_op(ctx, n, _prior(rng, n, "povm"), samples, int(rng.integers(2**31))))
    ops.append(_simulate_op(ctx, rng))
    return ops


# ----------------------------------------------------------- spectrum-ladder

SPECTRUM_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24)


def _spectrum_op(ctx: Context, n: int, c1: float, c2: float) -> Op:
    argv = ["spectrum", "--n", str(n), "--c1", _num(c1), "--c2", _num(c2)]
    lam = ref.least_eigenvalue(n, c1, c2)

    def check(stdout: str) -> list[str]:
        report = json.loads(stdout)
        blocks = report["blocks"]
        problems = []
        sizes = sorted(b["size"] for b in blocks)
        if sizes != ref.expected_block_sizes(n):
            problems.append(f"block sizes {sizes}")
        count = sum(len(b["eigenvalues"]) for b in blocks)
        if count != 2 * (n + 1) ** 2 or any(len(b["eigenvalues"]) != b["size"] for b in blocks):
            problems.append(f"{count} eigenvalues, expected {2 * (n + 1) ** 2}")
        pair_sum = 2.0 - c1 - c2
        for b in blocks:
            eigs = sorted(b["eigenvalues"])
            one = min(range(len(eigs)), key=lambda i: abs(eigs[i] - 1.0))
            problems += _close(f"block {b['label']}{b['l']} unit eigenvalue", eigs[one], 1.0, 1e-9)
            rest = eigs[:one] + eigs[one + 1:]
            for i in range(len(rest) // 2):
                problems += _close(f"block {b['label']}{b['l']} pair {i}", rest[i] + rest[-1 - i], pair_sum, 1e-9)
        problems += _close("min_eigenvalue", report["min_eigenvalue"], lam, 1e-9)
        if report["feasible"] != (lam >= -1e-9):
            problems.append(f"feasible={report['feasible']} but lambda_minus={lam!r}")
        return [f"spectrum n={n} c=({c1}, {c2}): {p}" for p in problems]

    return Op(f"spectrum n={n}", lambda: run_cli(ctx.modules["uqd.cli"], argv), check)


def spectrum_ladder(ctx: Context, rng: np.random.Generator) -> list[Op]:
    ops = []
    for n in SPECTRUM_LADDER:
        ops.append(_spectrum_op(ctx, n, *ref.optimal_scales(n, 0.5)))
        ops.append(_spectrum_op(ctx, n, 1.0, 1.0))
    return ops


# --------------------------------------------------------------- figure-data

FEASIBILITY_SCANS = ((2, 41), (4, 41), (8, 11))
FIGURE_SIZES = (2, 6)
FIGURE_POINTS = 201
OPTIMIZE_CALLS = 8
EDGE = 1e-9


def _feasibility_op(ctx: Context, n: int, grid: int) -> Op:
    path = ctx.work_dir / f"feasibility_n{n}.csv"
    argv = ["--n", str(n), "--grid", str(grid), "--out", str(path)]
    values = np.linspace(0.0, 1.0, grid)

    def check(stdout: str) -> list[str]:
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        problems = []
        if len(rows) != grid * grid:
            problems.append(f"{len(rows)} rows, expected {grid * grid}")
        for i, row in enumerate(rows[: grid * grid]):
            c1, c2 = float(row["c1"]), float(row["c2"])
            if (c1, c2) != (values[i // grid], values[i % grid]):
                problems.append(f"row {i} is ({c1}, {c2})")
                break
            lam = ref.least_eigenvalue(n, c1, c2)
            problems += _close(f"min_eigenvalue at ({c1}, {c2})", float(row["min_eigenvalue"]), lam, 1e-9)
            if abs(lam) > EDGE and int(row["feasible"]) != int(lam > 0):
                problems.append(f"feasible={row['feasible']} at ({c1}, {c2}), lambda_minus={lam!r}")
        worst = float(stdout.strip().splitlines()[-1].rsplit(":", 1)[1])
        if not worst <= 1e-9:
            problems.append(f"worst |min eigenvalue| on the constraint curve {worst}")
        return [f"feasibility_scan n={n}: {p}" for p in problems[:5]]

    def call() -> str:
        path.unlink(missing_ok=True)  # so a stale file cannot pass the check
        return run_cli(ctx.modules["feasibility_scan"], argv)

    return Op(f"feasibility_scan n={n}", call, check)


def _check_sweep(path: pathlib.Path, n: int, points: int) -> list[str]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    low, high = ref.validity_window(n)
    problems = []
    for i, row in enumerate(rows):
        eta1 = float(row["eta1"])
        problems += _close("eta1", eta1, i / (points - 1), 0.0)
        p_vn1, p_vn2 = float(row["p_vn1"]), float(row["p_vn2"])
        problems += _close(f"p_vn1 at {eta1}", p_vn1, ref.projective_success(n, eta1, 1), TOL)
        problems += _close(f"p_vn2 at {eta1}", p_vn2, ref.projective_success(n, eta1, 2), TOL)
        inside = low <= eta1 <= high
        if inside != (row["p_povm"] != ""):
            problems.append(f"p_povm presence wrong at eta1={eta1}")
            continue
        candidates = [p_vn1, p_vn2]
        if inside:
            p_povm = float(row["p_povm"])
            problems += _close(f"p_povm at {eta1}", p_povm, ref.povm_success(n, eta1), TOL)
            candidates.append(p_povm)
        problems += _close(f"p_opt at {eta1}", float(row["p_opt"]), max(candidates), TOL)
        if row["regime"] != ref.regime(n, eta1):
            problems.append(f"regime {row['regime']} at eta1={eta1}, window [{low}, {high}]")
    return problems


def _figure_op(ctx: Context) -> Op:
    out_dir = ctx.work_dir / "figures"
    argv = ["--sizes", *map(str, FIGURE_SIZES), "--points", str(FIGURE_POINTS), "--out-dir", str(out_dir)]

    def check(stdout: str) -> list[str]:
        problems = []
        summaries = [line for line in stdout.splitlines() if line.startswith("n=")]
        if len(summaries) != len(FIGURE_SIZES):
            problems.append(f"{len(summaries)} summary lines")
        for n, line in zip(FIGURE_SIZES, summaries):
            low, high = ref.validity_window(n)
            want = f"n={n}: window ({low:.6f}, {high:.6f}), flat-prior optimum {ref.povm_success(n, 0.5):.6f}"
            if line != want:
                problems.append(f"summary {line!r}, expected {want!r}")
            problems += [f"sweep n={n}: {p}" for p in _check_sweep(out_dir / f"sweep_n{n}.csv", n, FIGURE_POINTS)]
        return [f"make_figure_data: {p}" for p in problems[:5]]

    def call() -> str:
        for n in FIGURE_SIZES:
            (out_dir / f"sweep_n{n}.csv").unlink(missing_ok=True)
        return run_cli(ctx.modules["make_figure_data"], argv)

    return Op("make_figure_data", call, check)


def _optimize_op(ctx: Context, n: int, eta1: float) -> Op:
    argv = ["optimize", "--n", str(n), "--eta1", _num(eta1)]
    c1, c2 = ref.optimal_scales(n, eta1)
    kind = ref.regime(n, eta1)
    if kind == "povm":
        best = ref.povm_success(n, eta1)
    else:
        best = ref.projective_success(n, eta1, 1 if kind == "vn1" else 2)

    def check(stdout: str) -> list[str]:
        report = json.loads(stdout)
        problems = _close("c1", report["c1"], c1, 1e-12) + _close("c2", report["c2"], c2, 1e-12)
        problems += _close("avg_success", report["avg_success"], best, TOL)
        problems += _close("avg_success vs scales", report["avg_success"], ref.average_success(n, eta1, c1, c2), TOL)
        if report["regime"] != kind:
            problems.append(f"regime {report['regime']}, expected {kind}")
        return [f"optimize n={n} eta1={eta1}: {p}" for p in problems]

    return Op(f"optimize n={n}", lambda: run_cli(ctx.modules["uqd.cli"], argv), check)


def figure_data(ctx: Context, rng: np.random.Generator) -> list[Op]:
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    ops = [_feasibility_op(ctx, n, grid) for n, grid in FEASIBILITY_SCANS]
    ops.append(_figure_op(ctx))
    for i in range(OPTIMIZE_CALLS):
        n = int(rng.integers(1, 41))
        ops.append(_optimize_op(ctx, n, _prior(rng, n, "povm" if i % 2 == 0 else "vn")))
    return ops


# ------------------------------------------------------------- oracle-verify

VERIFY_N_MAX = 5
VERIFY_CHECKS = 11 * VERIFY_N_MAX


def _check_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    problems = []
    if passed != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1:
        problems.append(f"{passed} PASS lines out of {len(lines) - 1}, expected {VERIFY_CHECKS}")
    if lines[-1] != f"all {VERIFY_CHECKS} checks passed":
        problems.append(f"last line {lines[-1]!r}")
    return [f"verify: {p}" for p in problems]


def oracle_verify(ctx: Context, rng: np.random.Generator) -> list[Op]:
    argv = ["verify", "--n-max", str(VERIFY_N_MAX)]
    return [Op("verify", lambda: run_cli(ctx.modules["uqd.cli"], argv), _check_verify)]


WORKLOADS = {
    "mc-average": mc_average,
    "spectrum-ladder": spectrum_ladder,
    "figure-data": figure_data,
    "oracle-verify": oracle_verify,
}
