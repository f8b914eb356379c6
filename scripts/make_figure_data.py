"""Regenerate the success-probability sweep data behind the summary figures.

Writes one CSV per register size into --out-dir, then prints each curve's
regime window and its flat-prior optimum.  A size below 1 or fewer than 2
points is refused with exit 2 before anything is written.
"""

import argparse
import pathlib

from uqd.cli import main as cli_main
from uqd.strategy import avg_success_povm, validity_range


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 6])
    parser.add_argument("--points", type=int, default=201)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args(argv)
    if args.points < 2 or min(args.sizes) < 1:
        parser.error("need points >= 2 and every size >= 1")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in args.sizes:
        path = out_dir / f"sweep_n{n}.csv"
        code = cli_main(
            ["sweep", "--n", str(n), "--points", str(args.points), "--out", str(path)]
        )
        if code != 0:
            return code
        low, high = validity_range(n)
        print(
            f"n={n}: window ({low:.6f}, {high:.6f}), "
            f"flat-prior optimum {avg_success_povm(n, 0.5):.6f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
