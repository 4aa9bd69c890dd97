"""Command-line front end with JSON output and a persistent result cache.

Subcommands: lattice info, theta, weilrep, heegner, eisenstein, density,
verify.  Exact values are serialized as reduced-fraction strings, never as
floats; floating renderings sit under explicit "approx" keys.  Expensive
results (Heegner classes, density reports, theta series) are cached under
--cache-dir / $CYCLETHETA_CACHE keyed by operation, canonical inputs and a
digest of the package's own source files, so an entry written by other code
never matches; cache writes are atomic (write-temp-then-rename).

The parser is the standard library's argparse, and this module imports no
library module at top level: each command imports what it computes with.
lattice info loads quadlattice; eisenstein loads eisenstein (which imports
quadlattice); weilrep loads weilrep, cyclotomic, eisenstein and quadlattice;
verify loads verify, heegner, eisenstein and quadlattice.  The cached
commands import their compute module only on a miss, so a heegner hit loads
no library module, and theta and density hits load only quadlattice, which
canonicalises the Gram for the key.  Only verify's cup suite (alone or in
all) loads numpy, through enumeration's walker, shell and genus-2 histogram
functions; theta series are glued on Python ints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

__all__ = ["main", "run", "ResultCache"]

LIBRARY_ERRORS = (ValueError, ArithmeticError, RuntimeError)  # LatticeError is a ValueError


class UsageError(Exception):
    """A bad option value found after parsing; exits 2, as argparse's own do."""


def run(argv, prog_name: str = "cycletheta") -> int:
    """Programmatic dispatch; returns the exit code (0 ok, 1 computation
    error, 2 usage error) instead of terminating the process.

    This is the CLI's one error boundary: a library error or an OSError (an
    unreadable --lattice, a bad --cache-dir) in any command prints one
    ``error: <Type>: <message>`` line on stderr and returns 1."""
    try:
        args = _parser(prog_name).parse_args(argv)
        try:
            return args.command(args) or 0
        except UsageError as exc:
            args.parser.error(str(exc))
        except (*LIBRARY_ERRORS, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
        return exc.code


def main(args=None, prog_name: str = "cycletheta"):
    """The console script: run ``args`` (default: the command line) and exit
    with its code."""
    sys.exit(run(sys.argv[1:] if args is None else args, prog_name))


# click's spelling of the same call, main.main(args=..., prog_name=...), which
# perfbench/launch.py uses
main.main = main


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not an integer or p/q fraction: {text!r}")


def _resolve_lattice(spec: str):
    from .quadlattice import BUILTIN_GRAMS, named_lattice, new_lattice

    if spec in BUILTIN_GRAMS:
        return named_lattice(spec)
    path = Path(spec)
    if path.exists():
        try:
            data = json.loads(path.read_text())
            gram = data["gram"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise UsageError(f"{spec}: expected a JSON object with a 'gram' key ({exc})")
        return new_lattice(gram)
    raise UsageError(
        f"--lattice must be one of {sorted(BUILTIN_GRAMS)} or a JSON file with a 'gram' key"
    )


@lru_cache(maxsize=1)
def _source_digest() -> str:
    """sha256 over the name, size and bytes of every *.py file of the package,
    read once per process: any change to the code changes every cache key."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class ResultCache:
    """Content-addressed JSON store; a change to the package's source
    invalidates every entry by key."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def make_key(operation: str, inputs: dict) -> str:
        canonical = json.dumps(
            {
                "operation": operation,
                "inputs": inputs,
                "source": _source_digest(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or None for a miss.  A missing,
        unreadable or malformed entry, or one filed under another key, is a
        miss, so the caller recomputes and overwrites it."""
        try:
            with open(self.directory / f"{key}.json", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):  # FileNotFoundError, JSON and UTF-8 errors
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> None:
        entry = {"key": key, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, self.directory / f"{key}.json")
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def fetch_or_compute(self, operation: str, inputs: dict, compute) -> dict:
        """The cached payload, or ``compute()``, stored for next time.  A
        failed store (a full disk, a read-only directory) only costs the next
        call a recomputation, so it warns on stderr and the result stands."""
        key = self.make_key(operation, inputs)
        payload = self.get(key)
        if payload is None:
            payload = compute()
            try:
                self.put(key, payload)
            except OSError as exc:
                print(f"warning: result not cached: {type(exc).__name__}: {exc}", file=sys.stderr)
        return payload


def _cache(args) -> ResultCache:
    cache_dir = args.cache_dir
    if cache_dir is None:
        env = os.environ.get("CYCLETHETA_CACHE")
        if env:
            cache_dir = Path(env)
        else:
            base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
            cache_dir = Path(base) / "cycletheta"
    return ResultCache(cache_dir)


def _show(payload: dict, as_json: bool, lines) -> None:
    """Print ``payload`` as sorted, indented JSON, or else the text ``lines``
    (an iterable, consumed only in text mode)."""
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _lattice_info(args):
    """Rank, signature, determinant, and discriminant form data."""
    from .quadlattice import discriminant_form

    lat = _resolve_lattice(args.lattice)
    df = discriminant_form(lat)
    payload = {
        "gram": [list(r) for r in lat.gram],
        "rank": lat.rank,
        "signature": list(lat.signature),
        "det": lat.det,
        "discriminant_form": {
            "order": df.order,
            "sig8": df.sig8,
            "level": df.level,
            "generators": [
                {"coset": [str(x) for x in vec], "order": d}
                for vec, d in df.generators
            ],
            "q_table": {
                df.coset_label(lam): str(df.q_table[lam]) for lam in df.cosets
            },
        },
    }
    _show(payload, args.json, [
        f"rank {lat.rank}, signature {lat.signature}, det {lat.det}",
        f"|L'/L| = {df.order}, sig8 = {df.sig8}, level = {df.level}",
        *(f"  Q{df.coset_label(lam)} = {df.q_table[lam]}" for lam in df.cosets),
    ])


def _theta(args):
    """Coset theta series of a positive definite lattice below --max."""
    lat = _resolve_lattice(args.lattice)
    bound = _parse_rational(args.max)

    def compute():
        from .enumeration import theta_qseries

        return theta_qseries(lat, bound).to_json_dict()

    payload = _cache(args).fetch_or_compute(
        "theta",
        {"gram": [list(r) for r in lat.gram], "truncation": str(bound)},
        compute,
    )
    lines = []
    for coset, pairs in sorted(payload["components"].items()):
        terms = [f"{c}*q^({e})" for e, c in pairs if c != "0"]
        lines.append(f"coset={coset}: " + (" + ".join(terms) if terms else "0"))
    _show(payload, args.json, lines)


def _weilrep(args):
    """Weil representation generator matrices (exact and floating)."""
    from .quadlattice import discriminant_form
    from .weilrep import rho_S, rho_T, rho_word, verify_relations

    lat = _resolve_lattice(args.lattice)
    df = discriminant_form(lat)
    word = args.word
    if word is not None:
        mats = {word: rho_word(df, word)}
    else:
        mats = {"S": rho_S(df), "T": rho_T(df)}
    relations = verify_relations(df, raise_on_failure=False)
    payload = {
        "order": df.order,
        "sig8": df.sig8,
        "relations_pass": relations.all_pass,
        "matrices": {
            w: {
                "exact": m.entry_strings(),
                "approx": [[[z.real, z.imag] for z in row] for row in m.to_complex()],
            }
            for w, m in mats.items()
        },
    }

    def lines():
        for w, m in mats.items():
            yield f"rho({w}) on {df.order} cosets:"
            for row, row_c in zip(m.entry_strings(), m.to_complex()):
                yield "  [" + ", ".join(row) + "]"
                yield "    approx [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in row_c) + "]"
        yield f"relations: {'pass' if relations.all_pass else 'FAIL'}"

    _show(payload, args.json, lines())


def _heegner(args):
    """The weighted 0-cycle at level N, residue r, discriminant -d."""
    n, r, d = args.level, args.residue, args.disc

    def compute():
        from .heegner import heegner_cycle

        return heegner_cycle(n, r, d).to_json_dict()

    # the cycle reads r mod 2N, so r and r + 2N share one entry; N < 1 is
    # left to heegner_cycle's own error
    key_r = r % (2 * n) if n >= 1 else r
    payload = _cache(args).fetch_or_compute("heegner", {"N": n, "r": key_r, "d": d}, compute)
    _show(payload, args.json, [
        f"degree {payload['degree']}",
        *(f"  point (-({p['b']}) + sqrt(-{p['d']}))/(2*{p['a']})"
          f"  mult {p['mult']}  stab {p['stab']}  form {p['form']}" for p in payload["points"]),
    ])


def _eisenstein(args):
    """Eisenstein coefficient tables: Hurwitz H(d), E_k, or Cohen H(s, n)."""
    from . import eisenstein

    series, truncation, weight = args.series, args.max, args.weight
    if series == "hurwitz":
        table = eisenstein.hurwitz_table(truncation)
        _show(table.to_json_dict(), args.json,
              [f"H({dd}) = {v}" for dd, v in sorted(table.values.items())])
        return
    if weight is None:
        raise UsageError(f"--weight is required for --series {series}")
    qs = (
        eisenstein.eisenstein_k(weight, truncation)
        if series == "ek"
        else eisenstein.cohen(weight, truncation)
    )
    _show(qs.to_json_dict(), args.json, [qs.text()])


def _density(args):
    """Local representation density report at one prime."""
    lat = _resolve_lattice(args.lattice)
    p, m = args.prime, args.m

    def compute():
        from .eisenstein import local_density

        return local_density(lat, p, m).to_json_dict()

    payload = _cache(args).fetch_or_compute(
        "density", {"gram": [list(r) for r in lat.gram], "p": p, "m": m}, compute
    )
    _show(payload, args.json, [
        f"alpha_{payload['p']}({payload['m']}): stabilized {payload['stabilized']}"
        f" (threshold k0={payload['threshold']})",
        *(f"  level {k}: {v}" for k, v in payload["approximations"]),
    ])


def _verify(args):
    """Run a reproduction suite; exit code 0 iff every case passes."""
    from .verify import SUITES, reports_to_json

    if args.suite not in SUITES:
        raise UsageError(f"argument --suite: invalid choice: {args.suite!r} "
                         f"(choose from {', '.join(map(repr, SUITES))})")
    reports = SUITES[args.suite]()
    if args.json:
        print(reports_to_json(reports))
    else:
        for rep in reports:
            for line in rep.text_lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """click's conventions: a ``Usage: `` prefix, ``--help`` (no ``-h``),
    and no abbreviated options."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _subcommands(parser):
    return parser.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(subcommands, name: str, command):
    """A subcommand ``name`` running ``command``, with its --json flag."""
    sub = subcommands.add_parser(name, help=command.__doc__, description=command.__doc__)
    sub.set_defaults(command=command, parser=sub)
    sub.add_argument("--json", action="store_true", help="Print the result as JSON.")
    return sub


def _parser(prog_name: str) -> argparse.ArgumentParser:
    parser = _Parser(
        prog=prog_name,
        description="Exact computations with even lattices: theta series, Weil "
                    "representations, Heegner cycles, Eisenstein coefficients, densities.",
    )
    parser.add_argument("--cache-dir", type=Path,
                        help="Result cache directory (default: $CYCLETHETA_CACHE or OS cache dir).")
    commands = _subcommands(parser)

    lattice = commands.add_parser("lattice", help="Lattice inspection.",
                                  description="Lattice inspection.")
    info = _command(_subcommands(lattice), "info", _lattice_info)
    info.add_argument("--lattice", required=True, help="Built-in name or JSON Gram file.")

    theta = _command(commands, "theta", _theta)
    theta.add_argument("--lattice", required=True)
    theta.add_argument("--max", required=True, help="Truncation bound (integer or p/q).")

    weilrep = _command(commands, "weilrep", _weilrep)
    weilrep.add_argument("--lattice", required=True)
    weilrep.add_argument("--word", help="Generator word over S, T (lowercase or ^-1 inverts).")

    heegner = _command(commands, "heegner", _heegner)
    heegner.add_argument("--level", required=True, type=int)
    heegner.add_argument("--residue", required=True, type=int)
    heegner.add_argument("--disc", required=True, type=int)

    eisenstein = _command(commands, "eisenstein", _eisenstein)
    eisenstein.add_argument("--series", required=True, choices=("hurwitz", "ek", "cohen"))
    eisenstein.add_argument("--max", required=True, type=int)
    eisenstein.add_argument("--weight", type=int,
                            help="Weight k for ek; the parameter s (weight s+1/2) for cohen.")

    density = _command(commands, "density", _density)
    density.add_argument("--lattice", required=True)
    density.add_argument("--prime", required=True, type=int)
    density.add_argument("--m", required=True, type=int)

    verify = _command(commands, "verify", _verify)
    verify.add_argument("--suite", default="all", help="A name in verify.SUITES (default: all).")
    return parser


if __name__ == "__main__":
    main()
