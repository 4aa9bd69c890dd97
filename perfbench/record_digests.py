"""Regenerate ``expected_digests.json``: the output digest of every algebra_mix
query, computed by the code in ``src/``.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right; the benchmark
counts every later mismatch as a failed query.
"""

import json
import sys

import workloads


def main() -> int:
    table = {}
    for op in workloads.algebra_queries():
        payload, _, _ = workloads.run_algebra_op(op)
        table[workloads.op_key(op)] = workloads.digest(payload)
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
