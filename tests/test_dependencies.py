"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p4metrics"


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, PACKAGE
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top_level = (name.partition(".")[0] for name in names)
            outside += [f"{path.name}: {name}" for name in top_level if name not in sys.stdlib_module_names]
    assert outside == []
