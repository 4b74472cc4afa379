"""Byte-exact CLI outputs on the fixtures, pinned in golden.py, under this Python and the others installed."""

import json
import os
import subprocess
from pathlib import Path

import pytest

from p4metrics import csvio
import golden
import oracles


@pytest.mark.parametrize("name", sorted(golden.COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    got, want = golden.stdout_pin(tmp_path, name)
    assert got == want


@pytest.mark.parametrize("name", golden.OUT_FILES)
def test_out_file_matches_golden(name, tmp_path):
    got, want = golden.out_file_pin(tmp_path, name)
    assert got == want


@pytest.mark.parametrize("name", sorted(golden.CHARTS))
def test_svg_matches_golden(name, tmp_path):
    got, want = golden.chart_pin(tmp_path, name)
    assert got == want


def test_fine_sweep_matches_its_pinned_hashes(tmp_path):
    got, want = golden.fine_sweep_pin(tmp_path)
    assert got == want


# each metric cell of a pinned CSV is the value its counts give, to the bit
@pytest.mark.parametrize("name", sorted(path.name for path in golden.GOLDEN.glob("*.csv")))
def test_each_golden_csv_row_is_the_row_of_its_counts(name):
    _, _, rows = oracles.read_metrics_csv(golden.GOLDEN / name)
    assert rows and rows == [csvio.row(row[:4]) for row in rows]


# the supported Pythons other than the one running the tests, where pyenv has them installed;
# none has pytest or hypothesis, so each runs golden.py as a script
OTHER_PYTHONS = ("3.10.13", "3.12.1", "3.13.0")


def run_under(version, *argv):
    """The finished run of `argv` under the installed Python `version`, with src/ on its path."""
    python = Path.home() / ".pyenv" / "versions" / version / "bin" / "python3"
    if not python.exists():
        pytest.skip(f"Python {version} is not installed at {python}")
    src = Path(golden.__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [python, *argv], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_goldens_hold_under_each_installed_python(version):
    result = run_under(version, golden.__file__)
    assert (result.returncode, result.stderr) == (0, ""), result.stdout
    assert result.stdout.endswith(f"under Python {version}\n")


# MCC's radicand, about 4e321, is past the float range: its integer square root is taken instead
@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_huge_counts_evaluate_under_each_installed_python(version):
    counts = (10**80, 3 * 10**79, 10**79, 5 * 10**80)
    result = run_under(version, "-m", "p4metrics", "eval", "--counts", ",".join(map(str, counts)), "--format", "json")
    assert (result.returncode, result.stderr) == (0, "")
    assert abs(json.loads(result.stdout)["metrics"]["mcc"] - float(oracles.mcc(*counts))) <= 1e-15
