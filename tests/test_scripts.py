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
        ("star_cluster_walk.py", ["--kmax", "4", "--show-layers"]),
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


def _run_patched(script, patch, args):
    """Run a script in a fresh interpreter after the given setup lines."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import runpy, sys\n"
        f"{patch}"
        f"sys.argv = [{script!r}, *{args!r}]\n"
        f"runpy.run_path({str(ROOT / 'scripts' / script)!r}, run_name='__main__')\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_walk_fails_on_a_wrong_count():
    """A star-cluster count off by one stops the walk with a nonzero exit."""
    proc = _run_patched(
        "star_cluster_walk.py",
        "import edgewise.starcluster as sc\n"
        "count = sc.sc_count_partition_formula\n"
        "sc.sc_count_partition_formula = lambda k: count(k) + 1\n",
        ["--kmax", "3"],
    )
    assert proc.returncode != 0
    assert "counts disagree" in proc.stderr


def test_census_fails_on_a_wrong_count():
    """A link-type formula off by one makes the census exit nonzero."""
    proc = _run_patched(
        "link_census.py",
        "import edgewise.subdivision as sd\n"
        "count = sd.count_link_types\n"
        "sd.count_link_types = lambda k, q: count(k, q) + 1\n",
        ["-k", "3", "-q", "3"],
    )
    assert proc.returncode != 0
    assert "MISMATCH vertex link types: 3, formula 4" in proc.stderr
    assert "MISMATCH" not in proc.stdout
