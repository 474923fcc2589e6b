"""Experiment scripts: each runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("h_grid.py", ["--kmax", "4", "--qmax", "3"]),
        ("link_census.py", ["-k", "3", "-q", "3"]),
        ("star_cluster_walk.py", ["--kmax", "4"]),
    ],
)
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "MISMATCH" not in proc.stdout
