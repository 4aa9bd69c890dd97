#!/usr/bin/env python3
"""Tabulate deg Z(d) on X_0(1) against the Hurwitz class number H(d).

The degrees sum 1/e over the SL2(Z)-reduced binary quadratic forms of
discriminant -d, weighted by their Gamma_0(1) stabilizers; H(d) is Cohen's
H(1, d) from the class-number formula (a Dirichlet L-value times a divisor
sum), which counts no forms.  The two columns must agree exactly for every
d; the script exits 1 on any mismatch.
"""

import argparse
import time

from cycletheta.eisenstein import cohen_number
from cycletheta.heegner import heegner_cycle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=100, help="largest d (default 100)")
    args = ap.parse_args()

    t0 = time.time()
    print(f"{'d':>5} {'deg Z(d)':>10} {'H(d)':>10}  match")
    mismatches = 0
    for d in range(3, args.max + 1):
        if d % 4 not in (0, 3):
            continue
        deg = heegner_cycle(1, d % 2, d).degree
        h = cohen_number(1, d)
        ok = deg == h
        mismatches += not ok
        print(f"{d:>5} {str(deg):>10} {str(h):>10}  {'yes' if ok else 'NO'}")
    print(f"\n{mismatches} mismatches up to d = {args.max} ({time.time() - t0:.1f}s)")
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
