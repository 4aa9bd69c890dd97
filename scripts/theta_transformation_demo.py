#!/usr/bin/env python3
"""Numeric check of the vector-valued theta transformation law.

For each corpus lattice the coset theta series is evaluated at tau and at
the S- and T-images, and compared against the Weil-representation action
with automorphy factor (c tau + d)^(rank/2).  Residuals sit at rounding
level once the truncation tail bound is below 1e-12.  Exits 1 when any
residual is >= 1e-9 or any tail bound is >= 1e-12.
"""

import argparse
import sys

from cycletheta.quadlattice import direct_sum, named_lattice
from cycletheta.weilrep import theta_transform_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncation", type=int, default=16)
    args = ap.parse_args()

    a1 = named_lattice("A1")
    corpus = [
        ("A1+A1", direct_sum(a1, a1)),
        ("A2", named_lattice("A2")),
        ("D4", named_lattice("D4")),
        ("E8", named_lattice("E8")),
    ]
    print(f"{'lattice':>8} {'gen':>4} {'tau':>4} {'residual':>12} {'tail bound':>12}")
    failures = 0
    for name, lat in corpus:
        for gen in ("S", "T"):
            for tau in (1j, 2j):
                res = theta_transform_check(lat, gen, tau, args.truncation)
                print(
                    f"{name:>8} {gen:>4} {tau.imag:>3g}i {res.residual:>12.3e} "
                    f"{res.tail_bound:>12.3e}"
                )
                if not (res.residual < 1e-9 and res.tail_bound < 1e-12):
                    failures += 1
    if failures:
        print(f"{failures} case(s) with residual >= 1e-9 or tail bound >= 1e-12")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
