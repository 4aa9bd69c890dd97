"""Seeded inputs for the benchmark's workloads and the checks on their outputs.

Everything here is deterministic in the seed: ``algebra_stream(seed, k)`` and
``cli_commands(seed, k)`` give the k-th pass of a run.  Each pass of a
workload has the same composition for every seed, so passes of different
seeds do comparable work: an algebra_mix pass holds the same queries in a
seeded order with seeded repeats, and a cli_cache pass draws its commands
inside fixed kinds and size classes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_digests.json"

# verify_all: `cycletheta verify --suite all --json` at the seed commit.
VERIFY_ARGS = ("verify", "--suite", "all", "--json")
VERIFY_SHA256 = "3a55a07fafd716471f16943329bdc4d81b627b2f62843e80be2f08f7904cffd2"
VERIFY_BYTES = 34067

# ---------------------------------------------------------------------------
# algebra_mix: one long-lived process, about a third of its time in each of
# heegner, weilrep/cyclotomic and eisenstein.
#
# Top sizes are the largest that finish in a few seconds at the seed commit:
# heegner_cycle(1, 1, 2003) takes about 4 s, verify_relations on D4+A2
# (|D| = 12) about 1.3 s and on |D| = 16 about 1.2 s, local_density(D4, 2, 2)
# (p^k0 = 2^10) about 2.9 s.  The next size up is out of reach:
# local_density(D4, 2, 4) takes about 42 s and (D4, 2, 8) does not finish,
# and verify_relations on A2+A2+A2 (|D| = 27) takes about 12 s.

# The queries of a pass are the same for every seed; the seed orders them and
# picks which earlier queries repeat.  Drawing the inputs moved time and
# memory between seeds: heegner_cycle(1, r, d) jumps with the number of
# height doublings, which differs between neighbouring d (1199 needs 8 MB
# more than 1203), rho_word on A2+A2 takes 30-230 ms depending on the word,
# and the first hurwitz_table pays for every smaller one after it.
HEEGNER_TOP = (1, 1, 2003)
HEEGNER_LEVEL1 = (103, 203, 403, 803, 1203)
RELATION_LATTICES = (("A2",), ("D4",), ("A1", "A2"), ("A3", "A1"), ("A2", "A2"),
                     ("D4", "A2"), ("A3", "A3"))
WORD_LATTICES = (("A2",), ("D4",), ("A1", "A2"), ("A3", "A1"), ("A2", "A2"))
ALGEBRA_WORDS = ("STST", "TSST")
# (lattice, p, m) with p | 2 m det; the threshold k0 = 2 ord_p(2 m det) + 2
# runs from 4 to 10.
DENSITIES = (("D4", 2, 2), ("A3", 2, 2), ("D4", 2, 1), ("A3", 2, 1), ("A2", 3, 3),
             ("A2", 3, 1), ("A1", 2, 1), ("E8", 2, 2), ("E8", 3, 3), ("D4", 3, 3))
HURWITZ_DMAX = 8000
# Repeats are drawn from the kinds whose results the library keeps in an
# in-process lru_cache, so each one exercises a cache hit.
CACHED_KINDS = ("heegner", "cohen_number", "hurwitz_table")
N_REPEATS = 21


def _squarefree(n: int) -> bool:
    return all(n % (f * f) for f in range(2, math.isqrt(n) + 1))


# H(s, n) costs about the size of the fundamental discriminant of (-1)^s n,
# so these are squarefree n of one size, where that discriminant is +-n.
COHEN_QUERIES = tuple(
    (s, n) for s, res in ((2, 1), (3, 3))
    for n in [n for n in range(600, 700) if n % 4 == res and _squarefree(n)][:15])


def level_n_triples() -> list[tuple[int, int, int]]:
    """One solvable (N, r, d) per level 2 <= N <= 50, with d <= 300."""
    out = []
    for n in range(2, 51):
        d = 3 + (37 * n) % 250
        while True:
            rs = [r for r in range(2 * n) if (r * r + d) % (4 * n) == 0]
            if rs:
                out.append((n, rs[0], d))
                break
            d += 1
    return out


def heegner_op(n: int, r: int, d: int) -> list:
    return ["heegner", [n, r % (2 * n), d]]


def algebra_queries() -> list[list]:
    """The distinct queries of every pass (and the digest table's keys)."""
    ops = [heegner_op(*HEEGNER_TOP)]
    ops += [heegner_op(1, d % 2, d) for d in HEEGNER_LEVEL1]
    ops += [heegner_op(*t) for t in level_n_triples()]
    ops += [["relations", [list(lat)]] for lat in RELATION_LATTICES]
    ops += [["rho_word", [list(lat), w]] for lat in WORD_LATTICES for w in ALGEBRA_WORDS]
    ops += [["density", list(q)] for q in DENSITIES]
    ops.append(["hurwitz_table", [HURWITZ_DMAX]])
    ops += [["cohen_number", list(sn)] for sn in COHEN_QUERIES]
    return ops


def algebra_stream(seed: int, k: int) -> list[dict]:
    """Pass k of seed: fresh queries in seeded order with repeats mixed in.

    Each item is ``{"op": [kind, args], "repeat": bool}``.
    """
    rng = random.Random(f"algebra_mix:{seed}:{k}")
    fresh = algebra_queries()
    rng.shuffle(fresh)
    stream = [{"op": op, "repeat": False} for op in fresh]
    for _ in range(N_REPEATS):
        pos = rng.randrange(1, len(stream) + 1)
        earlier = [it["op"] for it in stream[:pos]
                   if not it["repeat"] and it["op"][0] in CACHED_KINDS]
        if not earlier:
            pos = len(stream)
            earlier = [it["op"] for it in stream
                       if not it["repeat"] and it["op"][0] in CACHED_KINDS]
        stream.insert(pos, {"op": rng.choice(earlier), "repeat": True})
    return stream


def op_key(op) -> str:
    return json.dumps(op, separators=(",", ":"))


def run_algebra_op(op) -> tuple[object, dict, dict]:
    """Execute one query through the public API.

    Returns the JSON-able payload that is digested, the fields the identity
    checks read, and the input size a growth fit uses (d with N, |D|, p^k0).
    """
    from cycletheta import (cohen_number, direct_sum, discriminant_form, heegner_cycle,
                            local_density, named_lattice, rho_word, verify_relations)
    from cycletheta.eisenstein import hurwitz_table

    kind, args = op
    if kind == "heegner":
        cycle = heegner_cycle(*args)
        return cycle.to_json_dict(), {"degree": str(cycle.degree)}, {"N": args[0], "d": args[2]}
    if kind in ("relations", "rho_word"):
        df = discriminant_form(direct_sum(*(named_lattice(n) for n in args[0])))
        if kind == "rho_word":
            return rho_word(df, args[1]).entry_strings(), {}, {"D": df.order}
        rep = verify_relations(df, raise_on_failure=False)
        payload = [rep.df_order, rep.sig8, rep.unitary_s, rep.unitary_t, rep.braid,
                   rep.s_squared]
        return payload, {"all_pass": rep.all_pass}, {"D": df.order}
    if kind == "density":
        rep = local_density(named_lattice(args[0]), args[1], args[2])
        stab = None if rep.stabilized is None else str(rep.stabilized)
        return rep.to_json_dict(), {"stabilized": stab}, {"pk0": args[1] ** rep.threshold}
    if kind == "hurwitz_table":
        return hurwitz_table(args[0]).to_json_dict(), {}, {"d": args[0]}
    if kind == "cohen_number":
        return str(cohen_number(*args)), {}, {"n": args[1]}
    raise ValueError(f"unknown query kind {kind!r}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def check_algebra_reply(item: dict, reply: dict, expected: dict[str, str],
                        first_digest: dict[str, str], hurwitz) -> str | None:
    """Return why the reply is wrong, or None.

    ``hurwitz`` computes H(d) independently of the heegner module;
    ``first_digest`` maps op keys to the digest of their first reply, so a
    repeat that differs (a stale or mutated cache entry) is caught.
    """
    op = item["op"]
    key = op_key(op)
    if not reply.get("ok"):
        return f"{key}: {reply.get('error', 'no reply')}"
    kind, args = op
    check = reply["check"]
    if kind == "heegner" and args[0] == 1:
        if Fraction(check["degree"]) != hurwitz(args[2]):
            return f"{key}: degree {check['degree']} != H({args[2]})"
    if kind == "relations" and not check["all_pass"]:
        return f"{key}: relations fail"
    if kind == "density" and check["stabilized"] is None:
        return f"{key}: density did not stabilize"
    if key in expected and reply["digest"] != expected[key]:
        return f"{key}: digest {reply['digest']} != seed-commit {expected[key]}"
    if first_digest.setdefault(key, reply["digest"]) != reply["digest"]:
        return f"{key}: repeated query answered differently"
    return None


# ---------------------------------------------------------------------------
# cli_cache: cold `cycletheta` processes against a fresh --cache-dir.  Each
# cacheable command runs twice (a miss that writes the entry, later a hit
# that reads it); uncached commands are interleaved.  Inputs are small so
# that start-up, imports, click dispatch and JSON I/O dominate.

CLI_HEEGNER_LEVEL1 = 2  # plus one level-N command
CLI_DENSITY = (("A2", 3, (1, 2, 4)), ("E8", 2, (1, 2, 3)), ("E8", 3, (3, 6)),
               ("A1", 2, (1, 3, 5, 7)), ("D4", 3, (3, 6)))
CLI_N_DENSITY = 3
CLI_THETA = (("A1", range(10, 31)), ("A2", range(4, 11)), ("A3", range(3, 7)),
             ("D4", range(2, 6)))
CLI_N_THETA = 2
CLI_WEILREP = ("A1", "A2", "A3", "D4")
CLI_WORDS = ("STST", "TSTS", "SSTT", "STTS", "TSST", "sTsT", "StSt", "SSSS")
CLI_LATTICE = ("A1", "A2", "A3", "D4", "E8")


def cli_commands(seed: int, k: int) -> list[dict]:
    """Pass k of seed: ``{"args": [...], "cache": "miss"|"hit"|None}``."""
    rng = random.Random(f"cli_cache:{seed}:{k}")
    cacheable = []
    for d in rng.sample([d for d in range(100, 201) if d % 4 in (0, 3)], CLI_HEEGNER_LEVEL1):
        cacheable.append(["heegner", "--level", "1", "--residue", str(d % 2), "--disc", str(d)])
    n, r, d = rng.choice(level_n_triples())
    cacheable.append(["heegner", "--level", str(n), "--residue", str(r), "--disc", str(d)])
    for name, p, ms in rng.sample(CLI_DENSITY, CLI_N_DENSITY):
        cacheable.append(["density", "--lattice", name, "--prime", str(p),
                          "--m", str(rng.choice(ms))])
    for name, maxes in rng.sample(CLI_THETA, CLI_N_THETA):
        cacheable.append(["theta", "--lattice", name, "--max", str(rng.choice(maxes))])
    uncached = [
        ["eisenstein", "--series", "hurwitz", "--max", str(rng.randrange(100, 301))],
        ["eisenstein", "--series", "ek", "--weight", str(rng.choice((4, 6, 8))),
         "--max", str(rng.randrange(10, 31))],
        ["eisenstein", "--series", "cohen", "--weight", str(rng.choice((2, 3))),
         "--max", str(rng.randrange(10, 31))],
    ]
    for name in rng.sample(CLI_WEILREP, 3):
        uncached.append(["weilrep", "--lattice", name, "--word", rng.choice(CLI_WORDS)])
    for name in rng.sample(CLI_LATTICE, 2):
        uncached.append(["lattice", "info", "--lattice", name])
    slots = [("c", i) for i in range(len(cacheable))] * 2 + [("u", i) for i in range(len(uncached))]
    rng.shuffle(slots)
    seen = set()
    out = []
    for kind, i in slots:
        if kind == "u":
            out.append({"args": uncached[i] + ["--json"], "cache": None})
        else:
            out.append({"args": cacheable[i] + ["--json"], "cache": "hit" if i in seen else "miss"})
            seen.add(i)
    return out


def check_cli_result(cmd: dict, code: int, stdout: bytes, wrote_entry: bool,
                     miss_stdout: dict[str, bytes]) -> str | None:
    """Return why a cli_cache command's result is wrong, or None."""
    key = " ".join(cmd["args"])
    if code != 0:
        return f"{key}: exit code {code}"
    try:
        json.loads(stdout)
    except ValueError:
        return f"{key}: output is not JSON"
    if cmd["cache"] == "miss":
        if not wrote_entry:
            return f"{key}: a cache miss wrote no entry"
        miss_stdout[key] = stdout
    elif cmd["cache"] == "hit":
        if wrote_entry:
            return f"{key}: expected a cache hit but an entry was written"
        if stdout != miss_stdout.get(key):
            return f"{key}: cache hit payload differs from the miss payload"
    return None


def check_verify_output(code: int, stdout: bytes) -> str | None:
    if code != 0:
        return f"verify exited {code}"
    if len(stdout) != VERIFY_BYTES or hashlib.sha256(stdout).hexdigest() != VERIFY_SHA256:
        return (f"verify --json output differs from the seed commit "
                f"({len(stdout)} bytes, sha256 {hashlib.sha256(stdout).hexdigest()[:16]})")
    return None
