"""Map the feasible scale region for one register size.

Scans a (c1, c2) grid, records the smallest eigenvalue of the inconclusive
operator at each point, and reports how closely the numerical feasibility
edge tracks the closed-form constraint curve.  Each point's minimum comes
from `least_eigenvalues`: the closed-form lambda_minus, the value
`uqd spectrum` reports, certified once per call.  The certificate checks
that the chain entries form projectors E and O, bounds every Jordan cosine
by n/(n+1) with one inertia count of pi0 at (1, 1), and needs inertia
counts of the 3x3 blocks J_1 and K_1 to put their least eigenvalue within
3 FEASIBLE_TOL/4 of each minimum, so a scan costs O(n^2) plus O(1) per
point, with no eigen-solve.  A size above SECTOR_N_MAX is refused before
anything is computed.  The grid and the constraint-curve points go into
one call, so one certificate covers both.  The CSV holds the bytes
csv.writer would write, CRLF line ends included, written one c1 row of the
grid at a time with each axis value formatted once.  A file that cannot be
written exits 1 with one `feasibility_scan: cannot write <path>: <error>`
line on stderr.
"""

import argparse
import pathlib
import sys

import numpy as np

from uqd.spectral import SECTOR_N_MAX, constraint_c2, least_eigenvalues


def _scan(args: argparse.Namespace) -> int:
    if args.n > SECTOR_N_MAX:
        # refused before constraint_c2, which cannot take a huge n as a float
        raise ValueError(f"sector blocks are capped at n <= {SECTOR_N_MAX}, got {args.n}")
    grid = args.grid
    values = np.linspace(0.0, 1.0, grid)
    c1, c2 = (axis.ravel() for axis in np.meshgrid(values, values, indexing="ij"))
    # the curve c2 = constraint_c2(c1) should sit exactly on the edge; its
    # points ride after the grid's, so one certificate covers both
    curve = [constraint_c2(c, args.n) for c in values.tolist()]
    least, feasible = least_eigenvalues(
        args.n, np.concatenate((c1, values)), np.concatenate((c2, curve))
    )
    worst = float(np.max(np.abs(least[grid * grid :])))

    path = pathlib.Path(args.out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as handle:
            _write_rows(handle, values, least, feasible)
    except OSError as exc:
        print(f"feasibility_scan: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({grid}x{grid} grid, n={args.n})")
    print(f"largest |min eigenvalue| along the constraint curve: {worst:.3e}")
    return 0


def _write_rows(handle, values: np.ndarray, least: np.ndarray, feasible: np.ndarray) -> None:
    """Write the bytes that csv.writer would, CRLF line ends included, with
    one write per c1 row of the grid and each axis value formatted once."""
    grid = len(values)
    axis = [f"{value:.17g}" for value in values.tolist()]
    ends = (",0\r\n", ",1\r\n")
    handle.write("c1,c2,min_eigenvalue,feasible\r\n")
    for i, a in enumerate(axis):
        row = slice(i * grid, (i + 1) * grid)
        handle.write(
            "".join(
                [
                    f"{a},{b},{low:.17g}{ends[ok]}"
                    for b, low, ok in zip(axis, least[row].tolist(), feasible[row].tolist())
                ]
            )
        )


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
