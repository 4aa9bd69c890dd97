#!/usr/bin/env python3
"""Byte-identity gate for every Heegner cycle in a fixed range.

Feeds the sorted-key JSON of heegner_cycle(n, r, d).to_json_dict() into one
sha256 per slice of levels, for d in 3..200 and r in range(2n), in that
order, and exits 1 unless every digest equals the recorded one.  The slices
are n in 1..30 and n in 31..50; together they cover every level the
benchmark queries.

    PYTHONPATH=src python scripts/heegner_sweep.py
"""

import hashlib
import json
import sys

from cycletheta.heegner import heegner_cycle

# (first level, last level, sha256)
SLICES = (
    (1, 30, "d6607456c4eeda3e1d474f6cec14859923ea9b24017422d33275027fa9f6851c"),
    (31, 50, "a8478353f5bca3b55a4a210d308cdff8249f0b79b8623cf66493ccc8cd810e67"),
)


def main() -> int:
    status = 0
    for first, last, expected in SLICES:
        digest = hashlib.sha256()
        cases = 0
        for n in range(first, last + 1):
            for d in range(3, 201):
                for r in range(2 * n):
                    digest.update(json.dumps(heegner_cycle(n, r, d).to_json_dict(), sort_keys=True).encode())
                    cases += 1
        got = digest.hexdigest()
        print(f"N = {first}..{last}: {cases} cycles, sha256 {got}")
        if got != expected:
            print(f"expected sha256 {expected}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
