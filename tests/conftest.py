import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_under_O():
    """Runs a script in a fresh ``python -O`` on this checkout's src, so the
    package's caches start empty and every assert is stripped; returns stdout."""

    def run(script: str) -> str:
        out = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(script)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    return run
