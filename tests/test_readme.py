"""The README's Python examples run as written."""

import re
import shlex
import shutil
from pathlib import Path

from p4metrics.cli import main
from conftest import DEMO_CSV

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path, monkeypatch):
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 4
    # the examples read the demo fixture and the CSV of the README's `simulate tpr` command
    (tmp_path / "fixtures").mkdir()
    shutil.copy(DEMO_CSV, tmp_path / "fixtures" / DEMO_CSV.name)
    monkeypatch.chdir(tmp_path)
    (command,) = re.findall(r"^p4metrics (simulate tpr .*)$", text, flags=re.MULTILINE)
    assert main(shlex.split(command)) == 0
    namespace = {}
    for index, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
