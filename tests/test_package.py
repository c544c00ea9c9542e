"""The package is pure Python on the standard library alone, as the empty
`dependencies` of pyproject.toml says: every absolute import in
src/chaintrace names a standard-library module, so the package's imports
of its own modules are all relative."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "chaintrace"


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
