#!/usr/bin/env python3
"""Byte-identity gate for coset theta series and representation numbers.

For each lattice of a fixed corpus, feeds into one sha256 the sorted-key
JSON of theta_qseries(lat, T).to_json_dict() and of rep_number(lat, lam, m)
for every coset lam of L'/L and the first few norms m on its grid
q(lam) + Z.  The corpus mixes ranks below and at the gluing threshold of
``enumeration``, so both count routes feed the digest.  Exits 1 unless the
digest equals the recorded one.

    PYTHONPATH=src python scripts/theta_sweep.py
"""

import hashlib
import json
import sys

from cycletheta.enumeration import rep_number, theta_qseries
from cycletheta.quadlattice import direct_sum, discriminant_form, named_lattice

EXPECTED = "be3bfc6add43a8287387b48080e2924fe1b41618959ba20d266d7fcab714df95"

# (lattice, theta truncation, norms per coset for rep_number)
CORPUS = [
    ("A1", 30, 8), ("A2", 20, 8), ("A3", 12, 6), ("D4", 12, 6), ("E8", 16, 12),
    ("A1+A1", 20, 6), ("A2+A2", 10, 4), ("A2+A2+A2", 8, 3), ("D4+A2", 8, 3),
    ("A1+A1+A1+A1+A1+A1+A1+A1", 5, 3), ("E8", 24, 0),
]


def main() -> int:
    digest = hashlib.sha256()
    for name, truncation, norms in CORPUS:
        lat = direct_sum(*(named_lattice(n) for n in name.split("+")))
        df = discriminant_form(lat)
        counts = [[str(lam), str(df.q_table[lam] + k), rep_number(lat, lam, df.q_table[lam] + k)]
                  for lam in df.cosets for k in range(norms)]
        record = {
            "lattice": name,
            "theta": theta_qseries(lat, truncation).to_json_dict(),
            "rep_number": counts,
        }
        digest.update(json.dumps(record, sort_keys=True).encode())
    got = digest.hexdigest()
    print(f"{len(CORPUS)} theta series, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
