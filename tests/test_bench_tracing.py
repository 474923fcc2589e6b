"""The benchmark's traced run can wrap every function it names.

A renamed or deleted target would otherwise surface only when a traced
benchmark run crashes with an AttributeError.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_targets_resolve():
    parts = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    code = "import edgewise.cli, tracing\ntracing.install(tracing.Tracer())\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, parts))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
