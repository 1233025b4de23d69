#!/usr/bin/env python3
"""Scan |Z^(n)| over interior (r, s) samples crossed with lattice
parameters on the fundamental-domain boundary, and report the smallest
value found.  The family is expected to stay bounded away from zero
there; the scan is the empirical check.

Usage:
    python scripts/premodular_boundary.py 2
"""

import argparse
import sys
import time

from tvspec import (
    boundary_nonvanishing_scan,
    boundary_tau_samples,
    rs_grid_default,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, choices=(1, 2, 3, 4), help="family index")
    ap.add_argument("--rs", type=int, nargs=2, default=(20, 20),
                    metavar=("NR", "NS"), help="(r, s) grid (default 20 20)")
    ap.add_argument("--tau-count", type=int, default=60,
                    help="boundary tau samples in all (default 60)")
    args = ap.parse_args(argv)

    rs = rs_grid_default(args.rs[0], args.rs[1])
    try:
        taus = boundary_tau_samples(args.tau_count)
        print(f"Z^({args.n}): {len(rs)} (r, s) samples x {len(taus)} "
              f"boundary tau = {len(rs) * len(taus)} evaluations")
        t0 = time.perf_counter()
        out = boundary_nonvanishing_scan(args.n, rs_grid=rs, tau_grid=taus)
        dt = time.perf_counter() - t0
    except ValueError as exc:  # --tau-count below 3 or an empty (r, s) grid
        ap.error(str(exc))

    r, s, tau = out["argmin"]
    print(f"min |Z^({args.n})| = {out['min_abs']:.6e}")
    print(f"  at (r, s) = ({r:.6f}, {s:.6f}), tau = {tau:.6f}")
    print(f"  floor {out['floor']:.1e}: "
          f"{'clear' if out['passed'] else 'VIOLATED'}  ({dt:.1f}s)")
    return 0 if out["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
