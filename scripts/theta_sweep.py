#!/usr/bin/env python3
"""Byte-identity gate for coset theta series and representation numbers.

For each lattice of a fixed corpus, feeds into one sha256 the sorted-key
JSON of theta_qseries(lat, T).to_json_dict() and of rep_number(lat, lam, m)
for every coset lam of L'/L and the first few norms m on its grid
q(lam) + Z.  Theta series are glued at every rank; rep_number walks below
rank 8 and glues from it on, and the corpus has ranks 1 to 8, so both count
routes feed the digest.  Then rep_number at a few large norms on cosets with
2 lam in L (the walk's largest balls) feeds it too.  Exits 1 unless the
digest equals the recorded one.

    PYTHONPATH=src python scripts/theta_sweep.py
"""

import hashlib
import json
import sys
from fractions import Fraction

from cycletheta.enumeration import rep_number, theta_qseries
from cycletheta.quadlattice import direct_sum, discriminant_form, named_lattice, new_lattice

EXPECTED = "67393043247a0fc7edd910a5e1fcbd82efbbe352e683afa1080e440b133f742e"

# rank-7 Grams with glue groups of order 4 and 10 (|D| = 48), from the seeded
# skewed corpus of the gluing tests
SKEWED_7 = (
    (2, -1, 1, 2, -1, 3, 1), (-1, 2, -3, 0, -1, -4, 2), (1, -3, 6, -3, 2, 7, -5),
    (2, 0, -3, 8, -1, -1, 6), (-1, -1, 2, -1, 4, 0, 0), (3, -4, 7, -1, 0, 12, -6),
    (1, 2, -5, 6, 0, -6, 12),
)
SKEWED_7_GLUE_10 = (
    (4, -3, 4, 4, -5, 1, 0), (-3, 4, -4, -2, 1, 1, -1), (4, -4, 6, 1, -3, 0, 1),
    (4, -2, 1, 10, -5, 2, 1), (-5, 1, -3, -5, 16, -4, 7), (1, 1, 0, 2, -4, 4, 0),
    (0, -1, 1, 1, 7, 0, 8),
)

# (lattice, theta truncation, norms per coset for rep_number)
CORPUS = [
    ("A1", 30, 8), ("A2", 20, 8), ("A3", 12, 6), ("D4", 12, 6), ("E8", 16, 12),
    ("A1+A1", 20, 6), ("A2+A2", 10, 4), ("A2+A2+A2", 8, 3), ("D4+A2", 8, 3),
    ("A1+A1+A1+A1+A1+A1+A1+A1", 5, 3), ("E8", 24, 0), ("D4+A1", 12, 4),
    ("A2+A2+A2+A1", 8, 3), (SKEWED_7, 8, 3), (SKEWED_7_GLUE_10, 8, 3),
]

HALF = Fraction(1, 2)
# (lattice, coset with 2 lam in L, norm above q(lam)) for rep_number; A1+A1 at
# q + 500 = 2001/4 has no vector (2001 = 3 * 23 * 29 is no sum of two squares)
LARGE_BALLS = [
    ("D4", (0, 0, 0, 0), 200), ("D4", (0, 0, 0, 0), 600), ("D4", (0, 0, HALF, HALF), 200),
    ("A1+A1", (HALF, 0), 500), ("A1+A1", (HALF, 0), 501), ("D4+A2", (0, 0, 0, 0, 0, 0), 30),
]


def _lattice(name):
    if isinstance(name, str):
        return direct_sum(*(named_lattice(n) for n in name.split("+")))
    return new_lattice(name)


def main() -> int:
    digest = hashlib.sha256()
    for name, truncation, norms in CORPUS:
        lat = _lattice(name)
        df = discriminant_form(lat)
        counts = [[str(lam), str(df.q_table[lam] + k), rep_number(lat, lam, df.q_table[lam] + k)]
                  for lam in df.cosets for k in range(norms)]
        record = {
            "lattice": name,
            "theta": theta_qseries(lat, truncation).to_json_dict(),
            "rep_number": counts,
        }
        digest.update(json.dumps(record, sort_keys=True).encode())
    for name, lam, k in LARGE_BALLS:
        lat = _lattice(name)
        m = discriminant_form(lat).q(lam) + k
        record = {"lattice": name, "coset": str(lam), "norm": str(m),
                  "rep_number": rep_number(lat, lam, m)}
        digest.update(json.dumps(record, sort_keys=True).encode())
    got = digest.hexdigest()
    print(f"{len(CORPUS)} theta series, {len(LARGE_BALLS)} large balls, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
