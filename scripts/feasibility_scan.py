"""Map the feasible scale region for one register size.

Scans a (c1, c2) grid, records the smallest eigenvalue of the inconclusive
operator at each point, and reports how closely the numerical feasibility
edge tracks the closed-form constraint curve.
"""

import argparse
import csv
import pathlib

import numpy as np

from uqd.povm import PovmParams
from uqd.spectral import constraint_c2, spectrum_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--grid", type=int, default=41, help="points per axis")
    parser.add_argument("--out", default="out/feasibility.csv")
    args = parser.parse_args(argv)
    if args.n < 1 or args.grid < 2:
        parser.error("need n >= 1 and grid >= 2")

    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    values = np.linspace(0.0, 1.0, args.grid)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["c1", "c2", "min_eigenvalue", "feasible"])
        for c1 in values:
            for c2 in values:
                report = spectrum_report(args.n, PovmParams(c1, c2))
                writer.writerow(
                    [
                        f"{c1:.17g}",
                        f"{c2:.17g}",
                        f"{report.min_eigenvalue:.17g}",
                        int(report.feasible),
                    ]
                )

    # the curve c2 = constraint_c2(c1) should sit exactly on the edge
    worst = 0.0
    for c1 in values:
        saturated = PovmParams(c1, constraint_c2(float(c1), args.n))
        report = spectrum_report(args.n, saturated)
        worst = max(worst, abs(report.min_eigenvalue))
    print(f"wrote {path} ({args.grid}x{args.grid} grid, n={args.n})")
    print(f"largest |min eigenvalue| along the constraint curve: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
