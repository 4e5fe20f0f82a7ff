"""Each demo runs in a subprocess on the repository's src tree, exits 0 and
prints a line it printed before.  Nothing else runs the demos, so this is
what notices an interface change that breaks one of them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["caterpillar_sequences.py"],
            "<2,6,3,5,3,7,2>  ->  positions (2,6), "
            "reductions <2,5,3,5,3,7,2> / <2,6,3,5,3,6,2>",
        ),
        (
            ["disconnected_families.py"],
            "  all blockers: ['G??GZ_', 'G?C?ZG', 'G?K?IK']",
        ),
        (
            ["tree_survey.py", "6"],
            "  6      6       5       1      0      1",
        ),
    ],
)
def test_demo_runs(argv, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()
