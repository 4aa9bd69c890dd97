#!/usr/bin/env python3
"""Byte-identity gate for the exact Weil representation on a fixed corpus.

For each lattice, feeds into one sha256 the sorted-key JSON of its
RelationReport and, for each word, of rho_word(df, word).entry_strings() and
to_complex() (each complex entry as [real, imag]).  Exits 1 unless the
digest equals the recorded one.

    PYTHONPATH=src python scripts/weilrep_sweep.py
"""

import dataclasses
import hashlib
import json
import sys

from cycletheta.quadlattice import direct_sum, discriminant_form, named_lattice
from cycletheta.weilrep import rho_word, verify_relations

EXPECTED = "bb557bed001ee7367e17213bce96ebd9281d46f2b7cf08f920b2610b73f31bbe"

LATTICES = ["A1", "A2", "A3", "D4", "E8", "U", "A1(-1)", "A1+A2", "A3+A1", "A2+A2", "A2+A2+A2"]
WORDS = ["STST", "TSST", "TSTS", "SSTT", "STTS", "sTsT", "StSt", "SSSS", "S^-1S", ""]


def main() -> int:
    digest = hashlib.sha256()
    for name in LATTICES:
        df = discriminant_form(direct_sum(*(named_lattice(n) for n in name.split("+"))))
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
