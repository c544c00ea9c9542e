"""Each script in demos/ runs to completion against the package in src/
and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expect", [
    ("counterexample_tour.py", "defect Tr(v) - Tr(u) - Tr(w) = 2*e"),
    ("det_lines.py", "   agree: True"),
    ("search_small_rings.py",
     "  first violation independently certified: True"),
])
def test_demo_runs(script, expect):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout.splitlines()
