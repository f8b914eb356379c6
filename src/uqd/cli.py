"""Command-line front end.

Subcommands: optimize (strategy for one prior), sweep (CSV over a prior
grid), spectrum (block eigenvalues and positivity), montecarlo (sampled
average success), verify (full-space oracle cross-checks).  JSON goes to
stdout; exit code 0 means success, 1 a runtime or check failure, 2 a usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .fullspace import FULL_N_MAX, run_verification
from .montecarlo import mc_average_success
from .povm import PovmParams
from .spectral import spectrum_report
from .strategy import DiscriminatorConfig, Regime, decide

TOOL_NAME = "uqd"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {text}")
    return value


# Built on the first `main` call and reused by every later one.  The handlers
# bound by set_defaults look their library calls up at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Unambiguous discrimination of two unknown qubits "
        "stored in program-data registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser(
        "optimize", help="best strategy and average success for one prior"
    )
    optimize.add_argument("--n", type=_positive_int, required=True, help="program copies")
    optimize.add_argument("--eta1", type=_unit_float, required=True, help="prior of state 1")
    optimize.set_defaults(func=_cmd_optimize)

    sweep = sub.add_parser("sweep", help="CSV of strategies over a prior grid")
    sweep.add_argument("--n", type=_positive_int, required=True)
    sweep.add_argument("--points", type=int, default=101, help="grid rows (>= 2)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    spectrum = sub.add_parser(
        "spectrum", help="block eigenvalues and positivity of the failure element"
    )
    spectrum.add_argument("--n", type=_positive_int, required=True)
    spectrum.add_argument("--c1", type=_unit_float, required=True)
    spectrum.add_argument("--c2", type=_unit_float, required=True)
    spectrum.set_defaults(func=_cmd_spectrum)

    montecarlo = sub.add_parser(
        "montecarlo", help="sampled average success at the decide-optimal strategy"
    )
    montecarlo.add_argument("--n", type=_positive_int, required=True)
    montecarlo.add_argument("--eta1", type=_unit_float, required=True)
    montecarlo.add_argument("--samples", type=int, default=100000)
    montecarlo.add_argument("--seed", type=int, default=1)
    montecarlo.set_defaults(func=_cmd_montecarlo)

    verify = sub.add_parser("verify", help="full-space oracle cross-checks")
    verify.add_argument(
        "--n-max", type=int, default=2, help=f"largest n to check (<= {FULL_N_MAX})"
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object instead of the PASS/FAIL lines",
    )
    verify.set_defaults(func=_cmd_verify)

    return parser


def _cmd_optimize(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    decision = decide(DiscriminatorConfig(args.n, args.eta1))
    print(json.dumps(decision.to_dict()))
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    n = args.n
    scale = n / (2 * (n + 1))
    lines = ["eta1,p_vn1,p_vn2,p_povm,p_opt,regime"]
    for i in range(args.points):
        eta1 = i / (args.points - 1)
        decision = decide(DiscriminatorConfig(n, eta1))
        p_opt = _fmt(decision.avg_success)
        lines.append(
            ",".join(
                (
                    _fmt(eta1),
                    _fmt(eta1 * scale),
                    _fmt((1.0 - eta1) * scale),
                    # decide takes the POVM exactly inside the window
                    p_opt if decision.regime is Regime.POVM else "",
                    p_opt,
                    decision.regime.value,
                )
            )
        )
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"{TOOL_NAME}: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"n": n, "points": args.points, "out": args.out}))
    return 0


def _cmd_spectrum(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = spectrum_report(args.n, PovmParams(args.c1, args.c2))
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_montecarlo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.samples < 1000:
        parser.error(f"--samples must be at least 1000, got {args.samples}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    decision = decide(DiscriminatorConfig(args.n, args.eta1))
    report = mc_average_success(
        args.n,
        PovmParams(decision.c1_opt, decision.c2_opt),
        args.eta1,
        args.samples,
        args.seed,
    )
    payload = {
        "n": args.n,
        "eta1": args.eta1,
        "regime": decision.regime.value,
        "c1": decision.c1_opt,
        "c2": decision.c2_opt,
        "seed": args.seed,
    }
    payload.update(report.to_dict())
    print(json.dumps(payload))
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n_max < 1:
        parser.error(f"--n-max must be at least 1, got {args.n_max}")
    if args.n_max > FULL_N_MAX:
        parser.error(
            f"--n-max {args.n_max} exceeds the full-space cap of {FULL_N_MAX}"
        )
    results = run_verification(args.n_max)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = {
            "checks": len(results),
            "all_passed": not failed,
            "results": [r.to_dict() for r in results],
        }
        print(json.dumps(payload, allow_nan=False))
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
        if not failed:
            print(f"all {len(results)} checks passed")
    if failed:
        print(f"{TOOL_NAME}: first failing check: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one `uqd` command line and return its exit code.

    May be called any number of times in one process: the parser is built
    once, on the first call, and each call prints only its own output.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"{TOOL_NAME}: number out of range: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"{TOOL_NAME}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
