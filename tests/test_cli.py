import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from p4metrics import csvio, read_curve_csv, svg, threshold_sweep
from p4metrics.cli import main
from conftest import DEMO_CSV, FIXTURES, NON_UTF8_CSVS


BOTH_OPTIMA = (
    "optimal tau (mcc-f1) = 0.45 (distance 0.330718)\n"
    "optimal tau (mcc-p4) = 0.55 (distance 0.289503)\n"
)


def golden_curve():
    """The demo curve CSV: the pinned --pair mcc-f1 stdout without its summary line."""
    lines = (FIXTURES / "golden" / "sweep_mcc-f1.txt").read_text().splitlines(keepends=True)
    return "".join(lines[:-1])


def cell(row, name):
    return row[csvio.COLUMNS.index(name)]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_separable(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("score,label\n0.9,positive\n0.2,negative\n")
    return path


class TestEval:
    def test_c1_table(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--counts", "45,995,5,8955")
        assert rc == 0
        assert re.search(r"P4\s+0\.1519", out)
        assert re.search(r"F1\s+0\.0826", out)
        assert "population 10000" in out

    def test_c4_table(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--counts", "8991,950,9,50")
        assert rc == 0
        assert re.search(r"F1\s+0\.9494", out)
        assert re.search(r"MK'\s+0\.8759", out)

    def test_undefined_shows_na_in_table(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--counts", "0,0,3,4")
        assert rc == 0
        assert re.search(r"PREC\s+n/a", out)

    def test_empty_matrix_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--counts", "0,0,0,0")
        assert rc == 2
        assert "zero" in err

    def test_malformed_counts_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--counts", "1,2")
        assert rc == 2
        assert "4 comma-separated" in err

    def test_source_is_required_and_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--counts", "1,1,1,1", "--file", str(DEMO_CSV)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_counts_too_large_for_a_float_exit_2(self, capsys):
        huge = str(10**84)
        rc, out, err = run_cli(capsys, "eval", "--counts", f"{huge},5,5,{huge}")
        assert rc == 2
        assert out == ""
        assert err.startswith("p4metrics: error: ") and err.count("\n") == 1

    def test_oversized_score_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("score,label\n0." + "1" * 200_000 + ",1\n")
        rc, out, err = run_cli(capsys, "eval", "--file", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("p4metrics: error: line 2: ") and err.count("\n") == 1

    def test_file_input_uses_default_tau(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--file", str(DEMO_CSV))
        assert rc == 0
        assert "tp=49  fp=32  fn=11  tn=108" in out

    def test_csv_and_json_agree(self, capsys):
        rc, csv_out, _ = run_cli(capsys, "eval", "--counts", "0,0,3,4", "--format", "csv")
        assert rc == 0
        rc, json_out, _ = run_cli(capsys, "eval", "--counts", "0,0,3,4", "--format", "json")
        assert rc == 0

        row = next(csv.DictReader(io.StringIO(csv_out)))
        record = json.loads(json_out)
        assert [int(row[k]) for k in ("tp", "fp", "fn", "tn")] == [0, 0, 3, 4]
        for name, json_value in record["metrics"].items():
            csv_value = float(row[name])
            if math.isnan(csv_value):
                assert math.isnan(json_value)
            else:
                assert csv_value == json_value

    def test_nan_spelled_out_in_csv(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--counts", "0,0,3,4", "--format", "csv")
        assert ",nan," in out

    def test_csv_round_trips_through_reader(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        rc, _, _ = run_cli(
            capsys, "eval", "--counts", "45,995,5,8955", "--format", "csv", "--out", str(path)
        )
        assert rc == 0
        key_column, rows = csvio.read_rows(path)
        assert key_column is None
        [(_, matrix, row)] = rows
        assert csvio.row(matrix) == row

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        rc, out, _ = run_cli(capsys, "eval", "--counts", "1,1,1,1", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert "MCC" in target.read_text()


class TestCases:
    def test_table_blocks(self, capsys):
        rc, out, _ = run_cli(capsys, "cases")
        assert rc == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 4
        c2 = blocks[1]
        assert c2.startswith("C2")
        assert re.search(r"P4\s+0\.1519", c2)
        assert re.search(r"F1\s+0\.9471", c2)

    def test_csv_round_trip_reproduces_itself(self, capsys, tmp_path):
        path = tmp_path / "cases.csv"
        rc, _, _ = run_cli(capsys, "cases", "--format", "csv", "--out", str(path))
        assert rc == 0
        key_column, rows = csvio.read_rows(path)
        assert key_column == "case"
        assert [key for key, _, _ in rows] == ["C1", "C2", "C3", "C4"]
        for _, matrix, parsed_row in rows:
            assert csvio.row(matrix) == parsed_row

    def test_json_matches_csv(self, capsys):
        rc, csv_out, _ = run_cli(capsys, "cases", "--format", "csv")
        assert rc == 0
        rc, json_out, _ = run_cli(capsys, "cases", "--format", "json")
        assert rc == 0
        records = json.loads(json_out)
        for row, record in zip(csv.DictReader(io.StringIO(csv_out)), records):
            assert row["case"] == record["case"]
            for name, json_value in record["metrics"].items():
                csv_value = float(row[name])
                assert csv_value == json_value or (math.isnan(csv_value) and math.isnan(json_value))


class TestSimulate:
    def test_balance_constant_youden(self, capsys, tmp_path):
        path = tmp_path / "balance.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "balance", "--n", "10000",
            "--tpr", "0.1", "--tnr", "0.1", "--out", str(path),
        )
        assert rc == 0
        key_column, rows = csvio.read_rows(path)
        assert key_column == "pos_fraction"
        assert len(rows) == 99
        assert all(f"{cell(row, 'j_scaled'):.4f}" == "0.1000" for _, _, row in rows)

    def test_tpr_endpoint_gap(self, capsys, tmp_path):
        path = tmp_path / "tpr.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "tpr", "--n", "10000",
            "--pos", "0.95", "--tnr", "0.8", "--out", str(path),
        )
        assert rc == 0
        _, rows = csvio.read_rows(path)
        _, _, row = rows[-1]
        assert abs((cell(row, "f1") - cell(row, "mcc_scaled")) - 0.05) <= 0.006

    def test_svg_output(self, capsys, tmp_path):
        path = tmp_path / "balance.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "balance", "--n", "1000",
            "--tpr", "0.8", "--tnr", "0.8", "--out", str(path), "--svg",
        )
        assert rc == 0
        ET.fromstring((tmp_path / "balance.svg").read_text())

    def test_out_of_range_fraction_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "simulate", "tpr", "--n", "10000", "--pos", "1.5", "--tnr", "0.8"
        )
        assert rc == 2
        assert "pos_fraction" in err

    def test_balance_requires_tpr(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "balance", "--tnr", "0.1"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_stdout_when_no_out(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "balance", "--n", "100", "--tpr", "0.5", "--tnr", "0.5"
        )
        assert rc == 0
        assert out.startswith("pos_fraction,tp,fp,fn,tn,")

    def test_svg_without_out_exits_2(self, capsys):
        rc, out, err = run_cli(
            capsys, "simulate", "balance", "--n", "100", "--tpr", "0.5", "--tnr", "0.5", "--svg"
        )
        assert rc == 2
        assert out == ""
        assert "--svg" in err and err.count("\n") == 1

    def test_svg_out_ending_in_svg_exits_2(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys, "simulate", "balance", "--n", "100", "--tpr", "0.5", "--tnr", "0.5",
            "--out", str(tmp_path / "balance.svg"), "--svg",
        )
        assert rc == 2
        assert out == ""
        assert "--svg" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_both_pairs_write_one_file(self, capsys, tmp_path):
        out = tmp_path / "curves.csv"
        rc, stdout, _ = run_cli(
            capsys, "sweep", "--file", str(DEMO_CSV), "--pair", "both", "--out", str(out)
        )
        assert rc == 0
        assert sorted(tmp_path.iterdir()) == [out]
        assert out.read_text() == golden_curve()
        assert stdout == BOTH_OPTIMA

    def test_single_pair_writes_named_file(self, capsys, tmp_path, demo_samples):
        out = tmp_path / "curve.csv"
        rc, stdout, _ = run_cli(
            capsys, "sweep", "--file", str(DEMO_CSV), "--pair", "mcc-p4", "--out", str(out)
        )
        assert rc == 0
        assert "optimal tau (mcc-p4) = 0.55" in stdout
        assert read_curve_csv(out) == threshold_sweep(demo_samples)

    def test_single_pair_stdout(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--file", str(DEMO_CSV), "--pair", "mcc-f1")
        assert rc == 0
        header = "tau,tp,fp,fn,tn,prec,rec,spec,npv,f1,p4,mcc,mcc_scaled,j,j_scaled,mk,mk_scaled"
        assert out.startswith(header + "\n")
        assert "optimal tau (mcc-f1)" in out

    def test_perfect_split_reports_zero_distance(self, capsys, tmp_path):
        path = write_separable(tmp_path)
        rc, out, _ = run_cli(capsys, "sweep", "--file", str(path), "--pair", "mcc-f1")
        assert rc == 0
        assert "(distance 0.000000)" in out

    def test_empty_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc, _, err = run_cli(capsys, "sweep", "--file", str(path))
        assert rc == 2
        assert "empty" in err

    def test_both_pairs_stdout(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--file", str(DEMO_CSV), "--pair", "both")
        assert rc == 0
        assert out == golden_curve() + BOTH_OPTIMA

    @pytest.mark.parametrize("delta", ["nan", "inf", "1e-9"])
    def test_bad_delta_exits_2(self, capsys, delta):
        rc, out, err = run_cli(capsys, "sweep", "--file", str(DEMO_CSV), "--delta", delta)
        assert rc == 2
        assert out == ""
        assert err.startswith("p4metrics: error: ") and err.count("\n") == 1

    def test_a_delta_whose_last_sum_rounds_to_one(self, capsys):
        # 7 * 0.14285714285714285 is 0.99999999999999995, one key with 1.0
        rc, out, err = run_cli(capsys, "sweep", "--file", str(DEMO_CSV), "--delta", repr(1 / 7))
        assert (rc, err) == (0, "")
        keys = [line.split(",")[0] for line in out.splitlines()[1:-2]]
        assert len(keys) == 8 and keys[-2:] == ["0.8571428571428571", "1.0"]

    def test_score_on_a_printed_tau_is_negative_there(self, capsys, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("score,label\n0.33,1\n0.1,0\n")
        rc, out, _ = run_cli(capsys, "sweep", "--file", str(path), "--delta", "0.03")
        assert rc == 0
        rows = [line for line in out.splitlines() if line.startswith("0.3")]
        assert rows[:3] == [
            "0.3,1,0,0,1,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0",
            "0.33,0,0,1,1,nan,0.0,1.0,0.5,0.0,0.0,nan,nan,0.0,0.5,nan,nan",
            "0.36,0,0,1,1,nan,0.0,1.0,0.5,0.0,0.0,nan,nan,0.0,0.5,nan,nan",
        ]

    def test_svg_without_out_exits_2(self, capsys, tmp_path):
        path = write_separable(tmp_path)
        rc, out, err = run_cli(capsys, "sweep", "--file", str(path), "--pair", "mcc-f1", "--svg")
        assert rc == 2
        assert out == ""
        assert "--svg" in err and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["curve.svg", "curve.SVG"])
    def test_svg_out_ending_in_svg_exits_2(self, capsys, tmp_path, name):
        rc, out, err = run_cli(
            capsys, "sweep", "--file", str(DEMO_CSV), "--out", str(tmp_path / name), "--svg"
        )
        assert rc == 2
        assert out == ""
        assert "--svg" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_svg_output(self, capsys, tmp_path, monkeypatch, demo_samples):
        charts = []
        write_svg = svg.write_svg
        monkeypatch.setattr(svg, "write_svg", lambda path, *chart: (charts.append(chart), write_svg(path, *chart)))
        out = tmp_path / "curves.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", "--file", str(DEMO_CSV), "--pair", "both",
            "--out", str(out), "--svg",
        )
        assert rc == 0
        root = ET.fromstring((tmp_path / "curves.svg").read_text())
        assert root.tag.endswith("svg")
        # the chart is handed one point per run of equal matrices
        runs = len(threshold_sweep(demo_samples).runs)
        assert runs == 84
        assert [len(points) for _, points in charts[0][-1]] == [runs, runs]


@pytest.mark.parametrize("command", [
    ["sweep", "--file", str(DEMO_CSV)],
    ["simulate", "balance", "--n", "100", "--tpr", "0.5", "--tnr", "0.5"],
])
def test_failed_chart_leaves_no_curve(capsys, tmp_path, command):
    (tmp_path / "X.svg").mkdir()
    rc, out, err = run_cli(capsys, *command, "--out", str(tmp_path / "X.csv"), "--svg")
    assert rc == 2
    assert err.startswith("p4metrics: error: ") and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "X.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "balance", "--tnr", "0.5"], "p4metrics: error: simulate balance needs --tpr"),
    (["simulate", "tpr", "--tnr", "0.5"], "p4metrics: error: simulate tpr needs --pos"),
    (["sweep", "--file", "x", "--delta", "abc"], "p4metrics sweep: error: argument --delta: invalid float value: 'abc'"),
    (["frobnicate"], "p4metrics: error: argument command: invalid choice: 'frobnicate'"),
], ids=["missing-tpr", "missing-pos", "bad-delta", "unknown-command"])
def test_a_usage_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", NON_UTF8_CSVS)
def test_a_byte_that_is_not_utf8_exits_2_on_one_line(capsys, tmp_path, case):
    data, _, message = NON_UTF8_CSVS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    rc, out, err = run_cli(capsys, "eval", "--file", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"p4metrics: error: {message}") and err.count("\n") == 1


def test_svg_is_utf8_whatever_the_locale(tmp_path):
    name = "démo∆.csv".encode()
    # a bytes path, so the name is the same whatever this process's locale
    with open(os.path.join(os.fsencode(tmp_path), name), "wb") as fh:
        fh.write(DEMO_CSV.read_bytes())
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
    done = subprocess.run(
        [sys.executable.encode(), b"-m", b"p4metrics", b"sweep", b"--file", name, b"--out", b"c.csv", b"--svg"],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "c.csv").read_text() == golden_curve()
    assert name[:-4] in (tmp_path / "c.svg").read_bytes()


def test_python_m_runs_the_cli(capsys):
    assert main(["cases", "--format", "csv"]) == 0
    expected = capsys.readouterr().out.encode()
    src = str(FIXTURES.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "p4metrics", "cases", "--format", "csv"],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == expected
