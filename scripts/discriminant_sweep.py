#!/usr/bin/env python3
"""Byte-identity gate for discriminant forms on a fixed corpus.

For each lattice, feeds into one sha256 the JSON of its discriminant form:
order, sig8, level, generators, the cosets in index order and q on each,
then index, neg, add, b and q on a seeded sample of coset pairs, each pair
once as canonical cosets and once shifted by seeded integer vectors.
The corpus is the seven named lattices, A1^k for k <= 8, A2^k for k <= 5,
D4+A2, A3+A3, U+A2, diag(2, -2), [[2, 1], [1, 2000]] and 20 seeded skewed
even Grams of rank 2-5 (indefinite ones included) with 0 < |det| <= 2000.
Exits 1 unless the digest equals the recorded one.

    PYTHONPATH=src python scripts/discriminant_sweep.py
"""

import hashlib
import json
import random
import sys

from cycletheta.quadlattice import (Degenerate, direct_sum, discriminant_form, named_lattice,
                                    new_lattice)

EXPECTED = "969e3179b0103464058273eca86e7aa486b353a76d61159c882daf895f99442f"

NAMED = ["A1", "A1(-1)", "A2", "A3", "D4", "E8", "U"]
SUMS = (["+".join(["A1"] * k) for k in range(2, 9)] + ["+".join(["A2"] * k) for k in range(2, 6)]
        + ["D4+A2", "A3+A3", "U+A2"])
GRAMS = [((2, 0), (0, -2)), ((2, 1), (1, 2000))]
PAIRS = 20


def skewed_grams(count, seed=27):
    """Even symmetric Grams of rank n in 2..5 with off-diagonal entries in
    [-r, r] and diagonal ones in 2[-r, r] (zero allowed), r = 12 // n, kept
    when 0 < |det| <= 2000."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(2, 5)
        r = 12 // n
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-r, r)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-r, r)
        try:
            lat = new_lattice(g)
        except Degenerate:
            continue
        if abs(lat.det) <= 2000:
            found.append(lat)
    return found


def corpus():
    for name in NAMED + SUMS:
        yield name, direct_sum(*(named_lattice(n) for n in name.split("+")))
    for lat in [new_lattice(g) for g in GRAMS] + skewed_grams(20):
        yield [list(r) for r in lat.gram], lat


def record(name, lat, rng):
    df = discriminant_form(lat)
    out = [name, df.order, df.sig8, df.level,
           [[[str(x) for x in vec], d] for vec, d in df.generators],
           [[str(x) for x in lam] for lam in df.cosets],
           [str(df.q_table[lam]) for lam in df.cosets]]
    for _ in range(PAIRS):
        lam, mu = rng.choice(df.cosets), rng.choice(df.cosets)
        for shift in (False, True):
            if shift:
                lam = tuple(x + rng.randint(-3, 3) for x in lam)
                mu = tuple(x + rng.randint(-3, 3) for x in mu)
            out.append([[str(x) for x in lam], [str(x) for x in mu], df.index(lam),
                        [str(x) for x in df.neg(lam)], [str(x) for x in df.add(lam, mu)],
                        str(df.b(lam, mu)), str(df.q(mu))])
    return out


def main() -> int:
    digest = hashlib.sha256()
    rng = random.Random(2009)
    count = 0
    for name, lat in corpus():
        digest.update(json.dumps(record(name, lat, rng)).encode())
        count += 1
    got = digest.hexdigest()
    print(f"{count} discriminant forms, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
