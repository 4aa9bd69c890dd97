#!/usr/bin/env python3
"""Byte-identity gate for the genus-2 inner-product histograms.

Feeds into one sha256 the JSON of inner_product_histogram(lat, mu1, m1, mu2,
m2), as sorted [value, count] pairs, for a fixed corpus:

- E8 on the zero coset at the 15 norm pairs m1 <= m2 <= 4 of the
  cup-product suite;
- A1, A2, A3, D4, A1+A1, A2+A2, D4+A1, A1+A3 and the root-free A2(2), on
  every ordered coset pair at m_i = q(mu_i) + k_i with k1, k2 <= 2;
- a skewed root-free rank-3 Gram of determinant 86, on every coset against
  the zero coset and against itself, both ways round, with k1, k2 <= 1.

Exits 1 unless the digest equals the recorded one.

    PYTHONPATH=src python scripts/histogram_sweep.py
"""

import hashlib
import json
import sys

from cycletheta.enumeration import inner_product_histogram
from cycletheta.quadlattice import direct_sum, discriminant_form, named_lattice, new_lattice

EXPECTED = "86f452372de448b980eefd6c2a3a8fb5fd6245cab5159b899728d3014dbfad4b"

SKEWED_3 = ((4, 1, 0), (1, 4, 1), (0, 1, 6))
A2_2 = ((4, -2), (-2, 4))


def cases():
    e8 = named_lattice("E8")
    zero = discriminant_form(e8).cosets[0]
    for t1 in range(5):
        for t2 in range(t1, 5):
            yield "E8", e8, zero, t1, zero, t2
    named = ["A1", "A2", "A3", "D4", "A1+A1", "A2+A2", "D4+A1", "A1+A3", A2_2]
    for name in named:
        lat = (direct_sum(*(named_lattice(n) for n in name.split("+")))
               if isinstance(name, str) else new_lattice(name))
        df = discriminant_form(lat)
        for mu1 in df.cosets:
            for mu2 in df.cosets:
                for k1 in range(3):
                    for k2 in range(3):
                        yield name, lat, mu1, df.q_table[mu1] + k1, mu2, df.q_table[mu2] + k2
    lat = new_lattice(SKEWED_3)
    df = discriminant_form(lat)
    zero = df.cosets[0]
    for mu in df.cosets:
        for mu1, mu2 in ((mu, zero), (zero, mu), (mu, mu)):
            for k1 in range(2):
                for k2 in range(2):
                    yield SKEWED_3, lat, mu1, df.q_table[mu1] + k1, mu2, df.q_table[mu2] + k2


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for name, lat, mu1, m1, mu2, m2 in cases():
        hist = inner_product_histogram(lat, mu1, m1, mu2, m2)
        record = [name, [str(x) for x in mu1], str(m1), [str(x) for x in mu2], str(m2),
                  [[str(v), c] for v, c in sorted(hist.items())]]
        digest.update(json.dumps(record).encode())
        count += 1
    got = digest.hexdigest()
    print(f"{count} histograms, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
