"""The benchmark's per-layer spans wrap largen names from outside the package.

A target that was deleted, renamed or is no longer in its class's own
``__dict__`` drops its metrics and leaves a traced benchmark run malformed,
so every target must still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_span_target_resolves():
    script = "import json, spans; print(json.dumps(spans.install(spans.Recorder())[1]))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
