#!/usr/bin/env python3
"""Tabulate deg Z(d) on X_0(1) against the Hurwitz class number H(d) by two
independent routes.

The degrees sum 1/e over the SL2(Z)-reduced binary quadratic forms of
discriminant -d, weighted by their Gamma_0(1) stabilizers (heegner_cycle).
The sieve column is hurwitz_table, which visits every reduced form of
discriminant -d <= --max once and weighs the boundary forms 1/2 and 1/3.
The Cohen column is H(1, d) from the class-number formula (a Dirichlet
L-value times a divisor sum), which counts no forms.  The three columns
must agree exactly for every d; the script exits 1 if any two disagree.
"""

import argparse
import time

from cycletheta.eisenstein import cohen_number, hurwitz_table
from cycletheta.heegner import heegner_cycle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=100, help="largest d (default 100)")
    args = ap.parse_args()

    t0 = time.time()
    sieve = hurwitz_table(args.max).values
    print(f"{'d':>5} {'deg Z(d)':>10} {'sieve H(d)':>10} {'H(1, d)':>10}  match")
    mismatches = 0
    for d in range(3, args.max + 1):
        if d % 4 not in (0, 3):
            continue
        deg = heegner_cycle(1, d % 2, d).degree
        h = cohen_number(1, d)
        ok = deg == sieve[d] == h
        mismatches += not ok
        print(f"{d:>5} {str(deg):>10} {str(sieve[d]):>10} {str(h):>10}  {'yes' if ok else 'NO'}")
    print(f"\n{mismatches} mismatches up to d = {args.max} ({time.time() - t0:.1f}s)")
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
