"""The package imports nothing outside the standard library, and the CLI
starts without the modules only some commands need."""

import ast
import subprocess
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


def test_the_cli_starts_without_dataclasses_json_or_svg():
    # what `import p4metrics.cli` newly loads in a fresh, isolated interpreter
    code = "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import p4metrics.cli; " \
        "print(*sorted(set(sys.modules) - before))"
    done = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "p4metrics.cli" in loaded
    assert [name for name in ("dataclasses", "decimal", "inspect", "json", "p4metrics.svg") if name in loaded] == []
