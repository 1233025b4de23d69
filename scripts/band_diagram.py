#!/usr/bin/env python3
"""Real-axis band structure for one multiplicity tuple on a rectangular
lattice, with the refined band edges lined up against the roots of the
spectral polynomial.

Usage:
    python scripts/band_diagram.py 2 0 0 0 --tau 1i --num 1201
"""

import argparse
import sys

import numpy as np

from tvspec import make_lattice, make_problem, spectral_report, stability_set_1d


def render_bands(bs, lo, hi, width=72):
    """One-line ASCII picture of the stability set on [lo, hi]."""
    cells = [" "] * width
    for band in bs.bands:
        i0 = int(round((band.lo - lo) / (hi - lo) * (width - 1)))
        i1 = int(round((band.hi - lo) / (hi - lo) * (width - 1)))
        for i in range(max(i0, 0), min(i1, width - 1) + 1):
            cells[i] = "#"
    return "".join(cells)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", nargs=4, type=int, help="multiplicities n0 n1 n2 n3")
    ap.add_argument("--tau", default="1i", help="pure-imaginary tau, e.g. 1.3i")
    ap.add_argument("--num", type=int, default=901, help="grid resolution")
    ap.add_argument("--pad", type=float, default=5.0,
                    help="window margin beyond the extreme roots")
    args = ap.parse_args(argv)
    if args.num < 2:  # a one-point grid has no cell to bracket an edge in
        ap.error(f"--num must be >= 2, got {args.num}")

    tau = complex(args.tau.replace("i", "j"))
    L = make_lattice(tau)
    n = tuple(args.n)

    rep = spectral_report(L, n)
    roots = np.sort(np.asarray(rep.root_report.roots).real)
    print(f"tuple {n}, tau = {tau}: genus {rep.genus}, "
          f"roots classified {rep.root_report.classification}")
    for r in roots:
        print(f"  root  {r:+.12f}")

    lo = roots[0] - args.pad
    hi = roots[-1] + args.pad
    prob = make_problem(L, n)
    bs = stability_set_1d(prob, lo, hi, num=args.num)

    print(f"\nstability set on [{lo:.3f}, {hi:.3f}] "
          f"({args.num} grid points):")
    print("  " + render_bands(bs, lo, hi))
    for band in bs.bands:
        left = "(-inf" if band.open_left else f"[{band.lo:.9f}"
        right = "+inf)" if band.open_right else f"{band.hi:.9f}]"
        print(f"  band  {left}, {right}")

    edges = np.asarray(bs.finite_edges)
    if len(edges) == len(roots):
        err = float(np.max(np.abs(edges - roots)))
        print(f"\nall {len(roots)} finite edges match the polynomial roots, "
              f"max error {err:.3e}")
        return 0
    print(f"\nedge count {len(edges)} != root count {len(roots)}; "
          "widen the window or raise --num")
    return 1


if __name__ == "__main__":
    sys.exit(main())
