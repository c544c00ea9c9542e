"""The package is pure Python on the standard library alone, as the empty
`dependencies` of pyproject.toml says: every absolute import in
src/chaintrace names a standard-library module, so the package's imports
of its own modules are all relative, and each module uses every name it
imports.  And the repository's pytest configuration reports a failing
property as one failure among the others, so it hides no later
result."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chaintrace"


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


def test_src_uses_every_name_it_imports():
    files = sorted(path for path in SRC.glob("*.py")
                   if path.name != "__init__.py")
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        for name, line in imported.items():
            assert name in used, f"{path.name}:{line} imports unused {name}"


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # on a failure hypothesis imports helpers that may warn on import; under
    # warnings as errors such a warning aborts the session (exit 3)
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n != 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
