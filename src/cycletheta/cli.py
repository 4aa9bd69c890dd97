"""Command-line front end with JSON output and a persistent result cache.

Subcommands: lattice info, theta, weilrep, heegner, eisenstein, density,
verify.  Exact values are serialized as reduced-fraction strings, never as
floats; floating renderings sit under explicit "approx" keys.  Expensive
results (Heegner classes, density reports, theta series) are cached under
--cache-dir / $CYCLETHETA_CACHE keyed by operation, canonical inputs and a
digest of the package's own source files, so an entry written by other code
never matches; cache writes are atomic (write-temp-then-rename).

Only verify's cup suite (alone or in all) loads numpy: enumeration,
imported inside the commands and suites that compute with it, imports numpy
only in its walker, shell and genus-2 histogram functions.  Theta series are
glued on Python ints, so every other command, theta (hit or miss) and
weilrep included, runs without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import click

from . import eisenstein
from .heegner import heegner_cycle
from .quadlattice import BUILTIN_GRAMS, LatticeError, discriminant_form, named_lattice, new_lattice
from .verify import SUITES, reports_to_json

__all__ = ["main", "run", "ResultCache"]


def run(argv) -> int:
    """Programmatic dispatch; returns the exit code (0 ok, 1 computation
    error, 2 usage error) instead of terminating the process."""
    try:
        main.main(args=list(argv), prog_name="cycletheta", standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"not an integer or p/q fraction: {text!r}")


def _resolve_lattice(spec: str):
    if spec in BUILTIN_GRAMS:
        return named_lattice(spec)
    path = Path(spec)
    if path.exists():
        try:
            data = json.loads(path.read_text())
            gram = data["gram"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise click.UsageError(f"{spec}: expected a JSON object with a 'gram' key ({exc})")
        return new_lattice(gram)
    raise click.UsageError(
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
                click.echo(f"warning: result not cached: {type(exc).__name__}: {exc}", err=True)
        return payload


def _cache_from_ctx(ctx) -> ResultCache:
    cache_dir = ctx.obj.get("cache_dir")
    if cache_dir is None:
        env = os.environ.get("CYCLETHETA_CACHE")
        if env:
            cache_dir = Path(env)
        else:
            base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
            cache_dir = Path(base) / "cycletheta"
    return ResultCache(cache_dir)


LIBRARY_ERRORS = (LatticeError, ValueError, ArithmeticError, RuntimeError)


class _Guarded(click.Group):
    """The CLI's one error boundary: a library error or an OSError (an
    unreadable --lattice, a bad --cache-dir) in any command prints one
    ``error: <Type>: <message>`` line on stderr and exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        # click's Exit (--help) and Abort are RuntimeErrors too
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except (*LIBRARY_ERRORS, OSError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


def _show(payload: dict, as_json: bool, lines) -> None:
    """Print ``payload`` as sorted, indented JSON, or else the text ``lines``
    (an iterable, consumed only in text mode)."""
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            click.echo(line)


_json_option = click.option("--json", "as_json", is_flag=True)


@click.group(cls=_Guarded)
@click.option("--cache-dir", type=click.Path(path_type=Path), default=None,
              help="Result cache directory (default: $CYCLETHETA_CACHE or OS cache dir).")
@click.pass_context
def main(ctx, cache_dir):
    """Exact computations with even lattices: theta series, Weil
    representations, Heegner cycles, Eisenstein coefficients, densities."""
    ctx.ensure_object(dict)
    ctx.obj["cache_dir"] = cache_dir


@main.group()
def lattice():
    """Lattice inspection."""


@lattice.command("info")
@click.option("--lattice", "spec", required=True, help="Built-in name or JSON Gram file.")
@_json_option
def lattice_info(spec, as_json):
    """Rank, signature, determinant, and discriminant form data."""
    lat = _resolve_lattice(spec)
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
    _show(payload, as_json, [
        f"rank {lat.rank}, signature {lat.signature}, det {lat.det}",
        f"|L'/L| = {df.order}, sig8 = {df.sig8}, level = {df.level}",
        *(f"  Q{df.coset_label(lam)} = {df.q_table[lam]}" for lam in df.cosets),
    ])


@main.command("theta")
@click.option("--lattice", "spec", required=True)
@click.option("--max", "truncation", required=True, help="Truncation bound (integer or p/q).")
@_json_option
@click.pass_context
def theta_cmd(ctx, spec, truncation, as_json):
    """Coset theta series of a positive definite lattice below --max."""
    lat = _resolve_lattice(spec)
    bound = _parse_rational(truncation)
    cache = _cache_from_ctx(ctx)

    def compute():
        from .enumeration import theta_qseries

        return theta_qseries(lat, bound).to_json_dict()

    payload = cache.fetch_or_compute(
        "theta",
        {"gram": [list(r) for r in lat.gram], "truncation": str(bound)},
        compute,
    )
    lines = []
    for coset, pairs in sorted(payload["components"].items()):
        terms = [f"{c}*q^({e})" for e, c in pairs if c != "0"]
        lines.append(f"coset={coset}: " + (" + ".join(terms) if terms else "0"))
    _show(payload, as_json, lines)


@main.command("weilrep")
@click.option("--lattice", "spec", required=True)
@click.option("--word", default=None, help="Generator word over S, T (lowercase or ^-1 inverts).")
@_json_option
def weilrep_cmd(spec, word, as_json):
    """Weil representation generator matrices (exact and floating)."""
    from .weilrep import rho_S, rho_T, rho_word, verify_relations

    lat = _resolve_lattice(spec)
    df = discriminant_form(lat)
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

    _show(payload, as_json, lines())


@main.command("heegner")
@click.option("--level", "n", required=True, type=int)
@click.option("--residue", "r", required=True, type=int)
@click.option("--disc", "d", required=True, type=int)
@_json_option
@click.pass_context
def heegner_cmd(ctx, n, r, d, as_json):
    """The weighted 0-cycle at level N, residue r, discriminant -d."""
    payload = _cache_from_ctx(ctx).fetch_or_compute(
        "heegner",
        {"N": n, "r": r, "d": d},
        lambda: heegner_cycle(n, r, d).to_json_dict(),
    )
    _show(payload, as_json, [
        f"degree {payload['degree']}",
        *(f"  point (-({p['b']}) + sqrt(-{p['d']}))/(2*{p['a']})"
          f"  mult {p['mult']}  stab {p['stab']}  form {p['form']}" for p in payload["points"]),
    ])


@main.command("eisenstein")
@click.option("--series", type=click.Choice(["hurwitz", "ek", "cohen"]), required=True)
@click.option("--max", "truncation", required=True, type=int)
@click.option("--weight", type=int, default=None,
              help="Weight k for ek; the parameter s (weight s+1/2) for cohen.")
@_json_option
def eisenstein_cmd(series, truncation, weight, as_json):
    """Eisenstein coefficient tables: Hurwitz H(d), E_k, or Cohen H(s, n)."""
    if series == "hurwitz":
        table = eisenstein.hurwitz_table(truncation)
        _show(table.to_json_dict(), as_json,
              [f"H({dd}) = {v}" for dd, v in sorted(table.values.items())])
        return
    if weight is None:
        raise click.UsageError(f"--weight is required for --series {series}")
    qs = (
        eisenstein.eisenstein_k(weight, truncation)
        if series == "ek"
        else eisenstein.cohen(weight, truncation)
    )
    _show(qs.to_json_dict(), as_json, [qs.text()])


@main.command("density")
@click.option("--lattice", "spec", required=True)
@click.option("--prime", "p", required=True, type=int)
@click.option("--m", "m", required=True, type=int)
@_json_option
@click.pass_context
def density_cmd(ctx, spec, p, m, as_json):
    """Local representation density report at one prime."""
    lat = _resolve_lattice(spec)
    payload = _cache_from_ctx(ctx).fetch_or_compute(
        "density",
        {"gram": [list(r) for r in lat.gram], "p": p, "m": m},
        lambda: eisenstein.local_density(lat, p, m).to_json_dict(),
    )
    _show(payload, as_json, [
        f"alpha_{payload['p']}({payload['m']}): stabilized {payload['stabilized']}"
        f" (threshold k0={payload['threshold']})",
        *(f"  level {k}: {v}" for k, v in payload["approximations"]),
    ])


@main.command("verify")
@click.option("--suite", type=click.Choice(tuple(SUITES)), default="all")
@_json_option
def verify_cmd(suite, as_json):
    """Run a reproduction suite; exit code 0 iff every case passes."""
    reports = SUITES[suite]()
    if as_json:
        click.echo(reports_to_json(reports))
    else:
        for rep in reports:
            for line in rep.text_lines():
                click.echo(line)
    if not all(r.passed for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()
