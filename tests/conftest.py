import os
import subprocess
import sys
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
