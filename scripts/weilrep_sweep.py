#!/usr/bin/env python3
"""Byte-identity gate for the exact Weil representation on a fixed corpus.

For each lattice (a "+"-joined sum of named lattices, or a Gram matrix),
feeds into one sha256 the sorted-key JSON of its RelationReport and, for
each word, of rho_word(df, word).entry_strings() and to_complex() (each
complex entry as [real, imag]).  Exits 1 unless the digest equals the
recorded one.

    PYTHONPATH=src python scripts/weilrep_sweep.py
"""

import dataclasses
import hashlib
import json
import sys

from cycletheta.quadlattice import direct_sum, discriminant_form, named_lattice, new_lattice
from cycletheta.weilrep import rho_word, verify_relations

EXPECTED = "0fca3c91dbcf77bebba90f6ce03ddb96c2a289e1e70db557c2974cff4181a489"

LATTICES = ["A1", "A2", "A3", "D4", "E8", "U", "A1(-1)", "A1+A2", "A3+A1", "A2+A2", "A2+A2+A2",
            # skewed Grams: D is Z/7, Z/5 (indefinite), Z/2 x Z/6, and Z/2^2 x Z/8 of level 2e
            [[2, 1], [1, 4]], [[2, 3], [3, 2]], [[4, 2], [2, 4]], [[4, 0, 2], [0, 4, 2], [2, 2, 4]]]
WORDS = ["STST", "TSST", "TSTS", "SSTT", "STTS", "sTsT", "StSt", "SSSS", "S^-1S", ""]


def main() -> int:
    digest = hashlib.sha256()
    for name in LATTICES:
        if isinstance(name, str):
            df = discriminant_form(direct_sum(*(named_lattice(n) for n in name.split("+"))))
        else:
            df = discriminant_form(new_lattice(name))
        report = dataclasses.asdict(verify_relations(df, raise_on_failure=False))
        digest.update(json.dumps({"lattice": name, "relations": report}, sort_keys=True).encode())
        for word in WORDS:
            m = rho_word(df, word)
            record = {
                "lattice": name,
                "word": word,
                "entries": m.entry_strings(),
                "complex": [[[z.real, z.imag] for z in row] for row in m.to_complex()],
            }
            digest.update(json.dumps(record, sort_keys=True).encode())
    got = digest.hexdigest()
    print(f"{len(LATTICES)} lattices x {len(WORDS)} words, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
