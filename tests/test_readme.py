"""The README's command lines and Python examples run as written."""

import importlib
import re
import shlex
import shutil
from pathlib import Path

import pytest

from p4metrics.cli import main
from conftest import DEMO_CSV

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines(text):
    """The arguments of each `p4metrics ...` line of the "Command line" block."""
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("p4metrics ")]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the demo fixture at the path the README names."""
    (tmp_path / "fixtures").mkdir()
    shutil.copy(DEMO_CSV, tmp_path / "fixtures" / DEMO_CSV.name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_command_lines_run(readme_dir, capsys):
    text = README.read_text()
    commands = command_lines(text)
    assert [argv[0] for argv in commands] == ["eval", "eval", "cases", "simulate", "simulate", "sweep"]
    # the summary lines the README quotes for the `sweep` command
    quoted = re.findall(r"^    (optimal tau .*\n)", text, flags=re.MULTILINE)
    assert len(quoted) == 2
    for argv in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "sweep":
            assert out == "".join(quoted)


def test_python_examples_run(readme_dir):
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 4
    # the examples read the demo fixture and the CSV of the README's `simulate tpr` command
    (command,) = [argv for argv in command_lines(text) if argv[:2] == ["simulate", "tpr"]]
    assert main(command) == 0
    namespace = {}
    for index, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_qualified_names_resolve():
    # bare names, as in the paragraphs on names gone with no alias, are not matched
    names = set(re.findall(r"`(p4metrics(?:\.\w+)+)`", README.read_text()))
    assert names == {"p4metrics.metrics.METRIC_RANGES", "p4metrics.simulate", "p4metrics.sweep.MAX_GRID_SIZE"}
    for name in sorted(names):
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:  # not a module, so an attribute of one
            module, _, attr = name.rpartition(".")
            assert hasattr(importlib.import_module(module), attr), name
