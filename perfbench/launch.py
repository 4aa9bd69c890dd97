"""Run one cold ``cycletheta`` command, optionally traced.

    python3 perfbench/launch.py [--trace FILE] -- <cycletheta arguments>

Untraced, this does what the installed ``cycletheta`` console script does:
import ``cycletheta.cli`` and call ``main``.  Traced, it records the start-up
imports as ``cli.startup`` (with ``cli.import_numpy`` inside it), wraps the
library's public functions, runs the command inside a ``cli.main`` span and
appends the spans to FILE.  With no arguments after ``--`` it only imports the
CLI, which the benchmark uses to time set-up.
"""

import sys


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: launch.py [--trace FILE] -- <cycletheta arguments>", file=sys.stderr)
        return 2
    args = argv[1:]
    if trace_path is None:
        from cycletheta.cli import main as cli_main
        if not args:
            return 0
        try:
            cli_main.main(args=args, prog_name="cycletheta")
        except SystemExit as exc:
            return _exit_code(exc)
        return 0

    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("cli.startup"):
        with tracer.span("cli.import_numpy"):
            import numpy  # noqa: F401
        from cycletheta.cli import main as cli_main
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main"):
            cli_main.main(args=args, prog_name="cycletheta")
    except SystemExit as exc:
        code = _exit_code(exc)
    finally:
        tracer.dump(trace_path)
    return code


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
