"""Each script in demos/ runs to completion against the package in src/
and prints its headline result, the README's example session runs as
written, its command table lists the command line's subcommands, and its
library table lists the package's modules."""

import argparse
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaintrace
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


def test_readme_library_table_lists_every_module():
    # one row per module, and every backticked name in a row that its
    # module defines is exported at the package top level
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `chaintrace\.(\w+)` \| (.*) \|$", text, re.M)
    modules = [p.stem for p in (ROOT / "src" / "chaintrace").glob("*.py")
               if p.stem not in ("__init__", "__main__")]
    assert sorted(name for name, _ in rows) == sorted(modules)
    checked = set()
    for name, contents in rows:
        module = importlib.import_module(f"chaintrace.{name}")
        for ident in re.findall(r"`(\w+)`", contents):
            obj = getattr(module, ident, None)
            if getattr(obj, "__module__", None) == module.__name__:
                assert ident in chaintrace.__all__, (name, ident)
                checked.add(ident)
    assert len(checked) >= len(rows), checked
