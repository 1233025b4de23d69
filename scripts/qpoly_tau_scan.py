#!/usr/bin/env python3
"""Sweep the lattice aspect ratio tau = i*b for one multiplicity tuple and
report how the spectral polynomial's root pattern behaves against the
class predicted by the sign conditions.

Usage:
    python scripts/qpoly_tau_scan.py 1 0 0 1 --b 0.5:2.0:31
"""

import argparse
import sys

import numpy as np

from tvspec import condition_class, genus_of, tau_scan


def parse_range(text):
    lo, hi, num = text.split(":")
    return np.linspace(float(lo), float(hi), int(num))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", nargs=4, type=int, help="multiplicities n0 n1 n2 n3")
    ap.add_argument("--b", default="0.5:2.0:31", metavar="LO:HI:NUM",
                    help="aspect ratios to sample (default 0.5:2.0:31)")
    args = ap.parse_args(argv)

    n = tuple(args.n)
    b_values = parse_range(args.b)
    print(f"tuple {n}: genus {genus_of(n)}, "
          f"condition class {condition_class(n)}")

    result = tau_scan(n, b_values)

    print(f"expected classification: {result.expected}")
    print(f"{'b':>8}  {'class':<14} {'max |Im E|':>12} {'min gap':>12}")
    for p in result.points:
        if p.classification is None:
            print(f"{p.b:8.3f}  {'(error)':<14} {p.error}")
            continue
        mark = "" if p.ok else "  <-- off pattern"
        print(f"{p.b:8.3f}  {p.classification:<14} "
              f"{p.max_imag:12.3e} {p.min_gap:12.3e}{mark}")

    print(f"\n{len(result.points) - result.failures}/{len(result.points)} "
          f"points match; scan {'PASSED' if result.passed else 'FAILED'}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
