"""The scripts under tools/ run end to end on small inputs."""

import re
import shutil
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


def test_abcpu_names_a_job_whose_answer_or_result_differs(tmp_path):
    # a copy of src/ and perfbench/ with one deliberate edit: a changed
    # answer string, then a changed result repr with the same answer
    change = tmp_path / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workloads = change / "perfbench" / "workloads.py"
    original = workloads.read_text()
    edits = (("examined={outcome.instances_examined} ",
              "examined={outcome.instances_examined + 1} ", "answer"),
             ("return outcome, cert\n", "return [outcome, cert]\n", "digest"))
    for old, new, key in edits:
        assert original.count(old) == 1
        workloads.write_text(original.replace(old, new))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "abcpu.py"), str(ROOT),
             str(change), "--workload", "exhaustive", "--small",
             "--passes", "1"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        differs = [line for line in proc.stdout.splitlines()
                   if "differs" in line]
        assert len(differs) == 1, proc.stdout
        assert re.match(rf"pass 0: job 0 \(exhaustive Z/2 w2r1\) differs "
                        rf"in {key}: ", differs[0]), differs
