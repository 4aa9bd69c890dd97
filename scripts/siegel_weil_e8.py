#!/usr/bin/env python3
"""E8 representation numbers three ways: exact vector enumeration, the
local-density product formula, and the classical 240 sigma_3(m).  Exits 1
when the three disagree for any m."""

import argparse
import sys
import time

from cycletheta.eisenstein import _factorize, local_density, siegel_product, sigma
from cycletheta.enumeration import rep_number
from cycletheta.quadlattice import named_lattice


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=10)
    ap.add_argument("--show-densities", action="store_true",
                    help="also print the counted local factors at p | 2m")
    args = ap.parse_args()

    e8 = named_lattice("E8")
    t0 = time.time()
    print(f"{'m':>3} {'r(m) enum':>12} {'product':>12} {'240*sigma3':>12}")
    mismatches = 0
    for m in range(1, args.max + 1):
        count = rep_number(e8, None, m)
        pred = siegel_product(e8, m)
        classical = 240 * sigma(3, m)
        flag = "" if count == pred == classical else "   <-- MISMATCH"
        mismatches += bool(flag)
        print(f"{m:>3} {count:>12} {str(pred):>12} {classical:>12}{flag}")
        if args.show_densities:
            for p, _e in _factorize(2 * m):
                rep = local_density(e8, p, m)
                print(f"      alpha_{p}({m}) = {rep.stabilized}")
    print(f"\ndone in {time.time() - t0:.1f}s")
    if mismatches:
        print(f"{mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
