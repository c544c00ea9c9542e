"""Each script in demos/ runs to completion against the package in src/
and prints its headline result, the README's example session runs as
written, and its command table lists the command line's subcommands."""

import argparse
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chaintrace import cli

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


def test_readme_example_session():
    # the pycon block alone: doctest.testfile would read the closing
    # fence as part of the last expected output
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```pycon\n(.*?)```", text, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md",
                                               "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert result == doctest.TestResults(failed=0, attempted=6)


def test_readme_command_table_lists_every_subcommand():
    text = (ROOT / "README.md").read_text()
    listed = re.findall(r"^\| `chaintrace ([\w-]+)", text, re.M)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed == list(subparsers.choices)
