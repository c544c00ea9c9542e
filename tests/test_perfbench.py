"""The benchmark's tracer still reaches every entry point it names, so a
refactor that moves or deletes a traced function or method fails here
instead of breaking traced benchmark runs; and the self-test's checks of
the randomized and instances workloads pass, while those of the
exhaustive workload find no problem beyond its three known ones."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_entry_point():
    # in a subprocess: install() rebinds the package's functions and
    # methods for the rest of the interpreter's life
    code = ("from tracer import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "print(tracer.unwrapped_leftovers())\n")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def selftest_problems(workload):
    """The self-test's problems with one workload, checked in a
    subprocess so that its tracer leaves this interpreter alone."""
    code = f"import selftest\nprint(selftest.check_workload({workload!r}))\n"
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


@pytest.mark.parametrize("workload", ["randomized", "instances"])
def test_selftest_workload_checks_pass(workload):
    # perfbench/selftest.py stops at its first failing group, so the
    # groups after it are checked here on their own: answers agree traced
    # and untraced, counts agree across traced passes, and every per-layer
    # metric it names for the workload is nonzero
    assert selftest_problems(workload) == []


def test_selftest_exhaustive_checks_find_only_the_known_problems():
    # the group the self-test stops at: three per-layer metrics it names
    # are zero on the exhaustive workload, and nothing else may go wrong
    known = {f"exhaustive: {metric}.count is zero"
             for metric in ("complexes.enum", "homotopy.coset_key",
                            "homotopy.trace")}
    assert set(selftest_problems("exhaustive")) <= known
