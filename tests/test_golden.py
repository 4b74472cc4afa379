"""Byte-exact CLI outputs on the fixtures.

The expected files under fixtures/golden/ were written by the CLI before the
sweep and simulation series were merged into one type, the two charts before
the CLI's chart builders were merged, and `sweep_demo.csv` before a series
became its keys and matrices; any refactor must reproduce them exactly.
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


# sweep sends only its curve to --out, and its summary lines to stdout
@pytest.mark.parametrize("name", [name for name in sorted(COMMANDS) if not name.startswith("sweep_")])
def test_out_file_matches_golden(name, capsys, tmp_path):
    target = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


# chart pins: the command (without --out/--svg) and the file name of its curve CSV
CHARTS = {
    "sweep_demo.svg": (["sweep", "--file", str(DEMO_CSV), "--pair", "both"], "sweep_demo.csv"),
    "simulate_balance.svg": (COMMANDS["simulate_balance.csv"], "simulate_balance.csv"),
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_svg_matches_golden(name, capsys, tmp_path):
    argv, csv_name = CHARTS[name]
    assert main(argv + ["--out", str(tmp_path / csv_name), "--svg"]) == 0
    capsys.readouterr()
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    # the curve CSV written beside the chart is pinned too
    assert (tmp_path / csv_name).read_bytes() == (GOLDEN / csv_name).read_bytes()
