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
