#!/usr/bin/env python3
"""Byte-identity gate for every Heegner cycle in a fixed range.

Feeds the sorted-key JSON of heegner_cycle(n, r, d).to_json_dict() into one
sha256 for n in 1..30, d in 3..200 and r in range(2n), in that order, and
exits 1 unless the digest equals the recorded one.

    PYTHONPATH=src python scripts/heegner_sweep.py
"""

import hashlib
import json
import sys

from cycletheta.heegner import heegner_cycle

EXPECTED = "d6607456c4eeda3e1d474f6cec14859923ea9b24017422d33275027fa9f6851c"


def main() -> int:
    digest = hashlib.sha256()
    cases = 0
    for n in range(1, 31):
        for d in range(3, 201):
            for r in range(2 * n):
                digest.update(json.dumps(heegner_cycle(n, r, d).to_json_dict(), sort_keys=True).encode())
                cases += 1
    got = digest.hexdigest()
    print(f"{cases} cycles, sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
