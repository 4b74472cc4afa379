"""Byte-exact CLI outputs on the fixtures.

The expected files under fixtures/golden/ were written by the CLI before the
sweep and simulation series were merged into one type; any refactor must
reproduce them exactly.
"""

import pytest

from p4metrics.cli import main
from conftest import DEMO_CSV, FIXTURES

GOLDEN = FIXTURES / "golden"

COMMANDS = {
    "cases.txt": ["cases"],
    "cases.csv": ["cases", "--format", "csv"],
    "cases.json": ["cases", "--format", "json"],
    "eval_demo.txt": ["eval", "--file", str(DEMO_CSV)],
    "eval_demo.csv": ["eval", "--file", str(DEMO_CSV), "--format", "csv"],
    "eval_demo.json": ["eval", "--file", str(DEMO_CSV), "--format", "json"],
    "simulate_balance.csv": ["simulate", "balance", "--n", "10000", "--tpr", "0.1", "--tnr", "0.1"],
    "simulate_tpr.csv": ["simulate", "tpr", "--n", "10000", "--pos", "0.95", "--tnr", "0.8"],
    "sweep_mcc-f1.txt": ["sweep", "--file", str(DEMO_CSV), "--pair", "mcc-f1"],
    "sweep_mcc-p4.txt": ["sweep", "--file", str(DEMO_CSV), "--pair", "mcc-p4"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["cases.csv", "eval_demo.csv", "simulate_tpr.csv"])
def test_out_file_matches_golden(name, capsys, tmp_path):
    target = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
