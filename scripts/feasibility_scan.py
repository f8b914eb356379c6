"""Map the feasible scale region for one register size.

Scans a (c1, c2) grid, records the smallest eigenvalue of the inconclusive
operator at each point, and reports how closely the numerical feasibility
edge tracks the closed-form constraint curve.  Each point's minimum comes
from `least_eigenvalues`: the numeric least eigenvalue of the 3x3 blocks
J_1 and K_1, certified once per call.  The certificate checks that the
chain entries form projectors E and O, bounds every Jordan cosine by
n/(n+1) with one inertia count of pi0 at (1, 1), and needs each minimum to
match the closed form, so a scan costs O(n^2) plus O(1) per point.
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from uqd.spectral import constraint_c2, least_eigenvalues


def _scan(args: argparse.Namespace) -> int:
    values = np.linspace(0.0, 1.0, args.grid)
    c1, c2 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    least, feasible = least_eigenvalues(args.n, c1, c2)
    # the curve c2 = constraint_c2(c1) should sit exactly on the edge
    curve = [constraint_c2(float(c), args.n) for c in values]
    worst = float(np.max(np.abs(least_eigenvalues(args.n, values, curve)[0])))

    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["c1", "c2", "min_eigenvalue", "feasible"])
        for a, b, low, ok in zip(c1, c2, least, feasible):
            writer.writerow([f"{a:.17g}", f"{b:.17g}", f"{low:.17g}", int(ok)])
    print(f"wrote {path} ({args.grid}x{args.grid} grid, n={args.n})")
    print(f"largest |min eigenvalue| along the constraint curve: {worst:.3e}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--grid", type=int, default=41, help="points per axis")
    parser.add_argument("--out", default="out/feasibility.csv")
    args = parser.parse_args(argv)
    if args.n < 1 or args.grid < 2:
        parser.error("need n >= 1 and grid >= 2")
    try:
        return _scan(args)
    except (ValueError, RuntimeError) as exc:
        print(f"feasibility_scan: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"feasibility_scan: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
