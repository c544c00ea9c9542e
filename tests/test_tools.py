"""The scripts under tools/ run end to end on small inputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_abcpu_finds_no_mismatch_between_a_checkout_and_itself():
    # an A/A run on the self-test slices: every job agrees, one line per
    # pass, exit 0
    for workload in ("exhaustive", "instances"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "abcpu.py"), str(ROOT),
             str(ROOT), "--workload", workload, "--small", "--passes", "2"],
            capture_output=True, text=True, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, lines
        for number, line in enumerate(lines):
            assert re.fullmatch(
                rf"pass {number}: [1-9]\d* jobs, cpu \d+\.\d{{3}} s against "
                rf"\d+\.\d{{3}} s, ratio \d+\.\d{{3}}", line), line
