#!/usr/bin/env python3
"""Degree-2 Siegel-Weil for E8: genus-2 representation numbers two ways.

For every positive definite T = [[t1, r/2], [r/2, t2]] with t1, t2 <= --max,
the number of pairs (x1, x2) in E8^2 with (1/2)((x_i, x_j)) = T is counted by
enumeration (rep_number_genus2, from the inner-product histograms) and
compared with the Fourier coefficient of the degree-2 Siegel Eisenstein
series of weight 4 (Eichler-Zagier, The Theory of Jacobi Forms, section 6):

    r2(T) = -60480 * sum_{d | (t1, r, t2)} d^3 * H(3, (4 t1 t2 - r^2) / d^2)

with Cohen's H(3, n) from a Dirichlet L-value, which counts no vectors.
Exits 1 on any mismatch.
"""

import argparse
import math
import sys
import time
from fractions import Fraction

from cycletheta.eisenstein import cohen_number
from cycletheta.enumeration import rep_number_genus2
from cycletheta.quadlattice import named_lattice


def eisenstein_coefficient(t1: int, r: int, t2: int) -> Fraction:
    disc = 4 * t1 * t2 - r * r
    g = math.gcd(t1, r, t2)
    return -60480 * sum(
        d ** 3 * cohen_number(3, disc // (d * d)) for d in range(1, g + 1) if g % d == 0
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=4, help="largest t1 and t2 (default 4)")
    args = ap.parse_args()

    e8 = named_lattice("E8")
    t0 = time.time()
    print(f"{'t1':>3} {'r':>3} {'t2':>3} {'r2(T) enum':>12} {'Eisenstein':>12}")
    cases = mismatches = 0
    for t1 in range(1, args.max + 1):
        for t2 in range(1, args.max + 1):
            r = -math.isqrt(4 * t1 * t2 - 1)
            while r * r < 4 * t1 * t2:
                b = Fraction(r, 2)
                count = rep_number_genus2(e8, None, ((t1, b), (b, t2)))
                pred = eisenstein_coefficient(t1, r, t2)
                flag = "" if count == pred else "   <-- MISMATCH"
                cases += 1
                mismatches += bool(flag)
                print(f"{t1:>3} {r:>3} {t2:>3} {count:>12} {str(pred):>12}{flag}")
                r += 1
    print(f"\n{cases - mismatches}/{cases} exact, done in {time.time() - t0:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
