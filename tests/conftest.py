import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import cycletheta

SRC = str(Path(cycletheta.__file__).resolve().parents[1])


@pytest.fixture
def fresh_python():
    """Run ``python -c CODE ARGS...`` (or ``-m``) in a new interpreter that
    imports cycletheta from this checkout; returns the CompletedProcess."""

    def run(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
        path = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=120, env={**os.environ, **(env or {}), "PYTHONPATH": path})

    return run


@pytest.fixture(autouse=True)
def private_cache_home(monkeypatch, tmp_path_factory):
    """Point the CLI's default cache directories at a fresh temporary
    directory, so no test reads or writes the user's cache."""
    home = tmp_path_factory.mktemp("cache-home")
    monkeypatch.setenv("CYCLETHETA_CACHE", str(home / "cycletheta"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / "xdg"))


class _Captured(io.StringIO):
    """One captured stream that also copies each write into ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written


@pytest.fixture
def invoke():
    """Run ``cycletheta ARGS`` in this process through ``cli.run``, capturing
    stdout and stderr; returns a CliResult."""
    from cycletheta.cli import run

    def invoke(args: list[str]) -> CliResult:
        both = io.StringIO()
        out, err = _Captured(both), _Captured(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
        return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue())

    return invoke
