import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from p4metrics import (
    ConfusionMatrix, MetricSeries, confusion, csvio, read_scored_csv, simulate, svg, sweep, threshold_sweep,
)
from p4metrics.cli import main
from p4metrics.metrics import METRIC_NAMES
from p4metrics.sweep import make_grid
from conftest import (
    DEMO_CSV, FIXTURES, NON_UTF8_CSVS, NUMBER_SPELLINGS, QUOTINGS, float_distance, scored_csv_texts, unit_floats,
)
import golden
import oracles


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
        # a field that is no integer names itself, not Python's int() message
        for field in ("1e3", "abc", "1.0", ""):
            rc, out, err = run_cli(capsys, "eval", "--counts", f"1,{field},3,4")
            assert (rc, out, err) == (2, "", f"p4metrics: error: bad number {field!r}\n")

    @pytest.mark.parametrize("tau", ["nan", "-1", "2"])
    @pytest.mark.parametrize("source", [
        ["--counts", "1,2,3,4"], ["--file", str(DEMO_CSV)], ["--file", "no-such-file.csv"],
    ], ids=["counts", "file", "missing-file"])
    def test_a_tau_outside_0_1_exits_2_before_the_source_is_read(self, capsys, source, tau):
        rc, out, err = run_cli(capsys, "eval", *source, "--tau", tau)
        assert (rc, out, err) == (2, "", f"p4metrics: error: tau must be in [0, 1], got {float(tau)!r}\n")

    def test_a_tau_in_0_1_is_accepted_with_counts(self, capsys):
        assert run_cli(capsys, "eval", "--counts", "1,2,3,4", "--tau", "0.3") == run_cli(
            capsys, "eval", "--counts", "1,2,3,4"
        )

    def test_source_is_required_and_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--counts", "1,1,1,1", "--file", str(DEMO_CSV)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("form", ["table", "csv", "json"])
    def test_counts_past_the_float_range_exit_0(self, capsys, form):
        # MCC's radicand, about 4e321, is past the float range, yet every metric is defined
        counts = (10**80, 3 * 10**79, 10**79, 5 * 10**80)
        rc, out, err = run_cli(capsys, "eval", "--counts", ",".join(map(str, counts)), "--format", form)
        assert (rc, err) == (0, "")
        if form == "json":
            assert abs(json.loads(out)["metrics"]["mcc"] - float(oracles.mcc(*counts))) <= 1e-15

    # every metric is a ratio of forms of one degree in the counts, so each case scaled by 10**80
    # reports as the case itself, though MCC's radicand then leaves the float range
    @pytest.mark.parametrize("form", ["table", "csv", "json"])
    @pytest.mark.parametrize("case", sorted(golden.CASES))
    def test_a_case_scaled_past_the_float_range_reports_as_the_case(self, capsys, case, form):
        (rc, small, _), (huge_rc, huge, err) = (
            run_cli(capsys, "eval", "--counts", ",".join(str(n * scale) for n in golden.CASES[case]), "--format", form)
            for scale in (1, 10**80)
        )
        assert (rc, huge_rc, err) == (0, 0, "")
        if form == "table":  # all but the line of counts
            assert huge.split("\n", 1)[1] == small.split("\n", 1)[1]
            return
        if form == "csv":
            [header, small_cells], [_, huge_cells] = csv.reader(small.splitlines()), csv.reader(huge.splitlines())
            small_metrics, huge_metrics = (
                dict(zip(header[4:], map(float, cells[4:]))) for cells in (small_cells, huge_cells)
            )
        else:
            small_metrics, huge_metrics = json.loads(small)["metrics"], json.loads(huge)["metrics"]
        assert list(huge_metrics) == list(small_metrics) == list(METRIC_NAMES)
        for name, value in small_metrics.items():
            assert abs(huge_metrics[name] - value) <= 1e-15, name

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

    # the late-cr file ends its first 2,000 lines (30 KB) in LF and the rest in CR
    @pytest.mark.parametrize("bad_row", [None, 150, 5000], ids=["good", "bad-row", "bad-row-after-cr"])
    def test_every_line_end_and_a_byte_order_mark_read_alike(self, capsys, tmp_path, bad_row):
        rows = DEMO_CSV.read_text().splitlines()
        rows[1:] *= 40  # 8,000 rows in 120 KB, so over eight 16 KiB blocks
        if bad_row is not None:
            rows[bad_row - 1] = "0.5,maybe"
        results = set()
        for name, bom, end in [("lf", "", "\n"), ("crlf", "", "\r\n"), ("cr", "", "\r"), ("bom", "\ufeff", "\n")]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes((bom + end.join(rows) + end).encode())
            results.add(run_cli(capsys, "eval", "--file", str(path), "--format", "json"))
        path = tmp_path / "late-cr.csv"
        path.write_bytes(("\n".join(rows[:2000]) + "\n" + "\r".join(rows[2000:]) + "\r").encode())
        results.add(run_cli(capsys, "eval", "--file", str(path), "--format", "json"))
        for name, quote in QUOTINGS.items():  # with the header quoted too, as R's write.csv quotes it
            path = tmp_path / f"{name}.csv"
            path.write_bytes(("\n".join(['"score","label"', *map(quote, rows[1:])]) + "\n").encode())
            results.add(run_cli(capsys, "eval", "--file", str(path), "--format", "json"))
        assert len(results) == 1
        rc, out, err = results.pop()
        if bad_row is None:
            assert (rc, err) == (0, "")
            assert json.loads(out)["counts"] == {"tp": 49 * 40, "fp": 32 * 40, "fn": 11 * 40, "tn": 108 * 40}
        else:
            assert (rc, out) == (2, "")
            assert err == f"p4metrics: error: line {bad_row}: unknown label 'maybe'\n"

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
        key_column, keys, rows = oracles.read_metrics_csv(path)
        assert key_column is keys is None
        assert rows == [csvio.row(ConfusionMatrix(45, 995, 5, 8955))]

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
        key_column, keys, rows = oracles.read_metrics_csv(path)
        assert key_column == "case"
        assert keys == ["C1", "C2", "C3", "C4"]
        assert rows == [csvio.row(row[:4]) for row in rows]

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
        key_column, _, rows = oracles.read_metrics_csv(path)
        assert key_column == "pos_fraction"
        assert len(rows) == 99
        assert all(f"{cell(row, 'j_scaled'):.4f}" == "0.1000" for row in rows)

    def test_tpr_endpoint_gap(self, capsys, tmp_path):
        path = tmp_path / "tpr.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "tpr", "--n", "10000",
            "--pos", "0.95", "--tnr", "0.8", "--out", str(path),
        )
        assert rc == 0
        row = oracles.read_metrics_csv(path)[2][-1]
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


# a series CSV the CLI writes holds every key and count its series has
@pytest.mark.parametrize("argv, build", [
    (("sweep", "--file", str(DEMO_CSV)), lambda: threshold_sweep(read_scored_csv(DEMO_CSV))),
    (("simulate", "balance", "--tpr", "0.9", "--tnr", "0.8"), lambda: simulate.balance_sweep(10_000, 0.9, 0.8)),
    (("simulate", "tpr", "--pos", "0.05", "--tnr", "0.8"), lambda: simulate.tpr_sweep(10_000, 0.05, 0.8)),
], ids=["sweep", "balance", "tpr"])
def test_a_written_series_rebuilds_to_the_library_series(capsys, tmp_path, argv, build):
    path = tmp_path / "series.csv"
    assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
    key_column, keys, rows = oracles.read_metrics_csv(path)
    series = MetricSeries(key_column, tuple(map(float, keys)), tuple(ConfusionMatrix(*row[:4]) for row in rows))
    assert series == build()
    assert series.runs == build().runs


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
        curve = threshold_sweep(demo_samples)
        key_column, keys, rows = oracles.read_metrics_csv(out)
        assert (key_column, tuple(map(float, keys))) == ("tau", curve.keys)
        assert rows == [row for start, end, row in curve.runs for _ in range(start, end)]

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


@pytest.mark.parametrize("command", [
    ["eval", "--counts", "1,2,3,4"],
    ["cases", "--format", "csv"],
    ["sweep", "--file", str(DEMO_CSV), "--svg"],
], ids=["eval", "cases", "sweep-svg"])
def test_an_out_that_cannot_be_opened_exits_2_and_removes_nothing(capsys, tmp_path, command):
    out = tmp_path / "X.csv"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    rc, stdout, err = run_cli(capsys, *command, "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith("p4metrics: error: ") and err.count("\n") == 1
    assert (out / "kept.txt").read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["X.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_write_that_fails_into_a_fifo_keeps_the_fifo(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def read_some():  # then close, so that the rest of the 1.7 MB curve meets a broken pipe
        with open(fifo, "rb") as fh:
            fh.read(100)

    reader = threading.Thread(target=read_some, daemon=True)
    reader.start()
    rc, stdout, err = run_cli(capsys, "sweep", "--file", str(DEMO_CSV), "--delta", "0.0001", "--out", str(fifo))
    reader.join(timeout=10)
    assert rc == 2
    assert stdout == ""
    assert err.startswith("p4metrics: error: ") and err.count("\n") == 1
    assert fifo.is_fifo()


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()], ids=["os-error", "interrupt"])
def test_a_write_that_fails_midway_leaves_no_out(capsys, tmp_path, monkeypatch, error):
    def failing(series, out):
        out.write("tau," * 100_000)  # past the file's buffer, so some of it is on disk
        assert (tmp_path / "X.csv").stat().st_size > 0
        raise error

    monkeypatch.setattr(sweep, "write_curve_csv", failing)
    argv = ["sweep", "--file", str(DEMO_CSV), "--out", str(tmp_path / "X.csv")]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out, err) == (2, "", "p4metrics: error: disk full\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", NUMBER_SPELLINGS)
def test_a_number_spelling_exits_2_or_is_read_as_documented(capsys, tmp_path, spelling):
    spell, accepted = NUMBER_SPELLINGS[spelling]
    scores = tmp_path / "scores.csv"
    scores.write_text(f"score,label\n0.9,1\n{spell('0.45')},0\n", encoding="utf-8")
    for argv, plain, message in [
        (["--counts", f"{spell('45')},995,5,8955"], ["--counts", "45,995,5,8955"], f"bad number {spell('45')!r}"),
        (["--file", str(scores)], ["--counts", "1,0,0,1"], f"line 3: bad score {spell('0.45')!r}"),
    ]:
        rc, out, err = run_cli(capsys, "eval", *argv)
        if accepted:
            assert (rc, out, err) == run_cli(capsys, "eval", *plain)
        else:
            assert (rc, out, err) == (2, "", f"p4metrics: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "balance", "--tnr", "0.5"], "p4metrics: error: simulate balance needs --tpr"),
    (["simulate", "tpr", "--tnr", "0.5"], "p4metrics: error: simulate tpr needs --pos"),
    (["simulate", "balance", "--tpr", "0.5", "--tnr", "0.5", "--pos", "0.3"],
     "p4metrics: error: simulate balance takes no --pos"),
    (["simulate", "tpr", "--n", "100", "--pos", "0.5", "--tnr", "0.5", "--tpr", "0.3"],
     "p4metrics: error: simulate tpr takes no --tpr"),
    (["sweep", "--file", "x", "--delta", "abc"], "p4metrics sweep: error: argument --delta: invalid float value: 'abc'"),
    (["frobnicate"], "p4metrics: error: argument command: invalid choice: 'frobnicate'"),
], ids=["missing-tpr", "missing-pos", "stray-pos", "stray-tpr", "bad-delta", "unknown-command"])
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


def child_env():
    """This process's environment, with this checkout's src first on PYTHONPATH."""
    src = str(FIXTURES.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": pythonpath}


def python_m(*argv):
    """`python -m p4metrics *argv` in a child process, with this checkout's src on PYTHONPATH."""
    return subprocess.run([sys.executable, "-m", "p4metrics", *argv], capture_output=True, env=child_env())


def test_python_m_runs_the_cli(capsys):
    assert main(["cases", "--format", "csv"]) == 0
    expected = capsys.readouterr().out.encode()
    done = python_m("cases", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected == (FIXTURES / "golden" / "cases.csv").read_bytes()
    # the CLI imports json only for --format json, so run that from a fresh process too
    done = python_m("eval", "--file", str(DEMO_CSV), "--format", "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (FIXTURES / "golden" / "eval_demo.json").read_bytes()


def peak_rss_mb(*argv, code=0):
    """Peak RSS in MiB of `python -m p4metrics *argv`, which must exit with `code`,
    from `os.wait4` in a small child that starts it: Linux counts the resident
    size of the process a child is forked from, up to its exec, in the child's
    `ru_maxrss`."""
    script = (
        "import os, subprocess, sys\n"
        "_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL).pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, sys.executable, "-m", "p4metrics", *argv],
                          capture_output=True, text=True, env=child_env())
    status, rss_mb = done.stdout.split()
    assert status == str(code), done.stderr
    return float(rss_mb)


def test_a_long_curve_is_streamed_not_held_in_memory(tmp_path):
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    base = peak_rss_mb("sweep", "--file", str(DEMO_CSV), "--delta", "0.01", "--out", str(small))
    peak = peak_rss_mb("sweep", "--file", str(DEMO_CSV), "--delta", "0.00001", "--out", str(large))
    curve_mb = large.stat().st_size / 2**20
    assert curve_mb > 20  # 100,001 keys
    assert peak - base < curve_mb / 2, (base, peak, curve_mb)


def test_a_late_switch_to_lone_cr_line_ends_costs_no_memory(tmp_path):
    # 10**6 rows; the late-cr copy ends its first 2,000 lines in LF and the rest in CR
    header, *rows = DEMO_CSV.read_text().splitlines(keepends=True)
    early, late = "".join(rows) * 10, "".join(rows) * 4_990
    lf, late_cr = tmp_path / "lf.csv", tmp_path / "late-cr.csv"
    lf.write_text(header + early + late, newline="")
    late_cr.write_text(header + early + late.replace("\n", "\r"), newline="")
    base = peak_rss_mb("eval", "--file", str(lf))
    peak = peak_rss_mb("eval", "--file", str(late_cr))
    assert peak - base < 1, (base, peak)


def test_a_line_with_no_end_costs_no_memory(tmp_path):
    # line 3 holds 100 MB and never ends; it is named once it is longer than any record's line
    path = tmp_path / "endless.csv"
    with open(path, "wb") as fh:
        fh.write(b"score,label\n0.5,1\n")
        for _ in range(100):
            fh.write(b"0" * 10**6)
    base = peak_rss_mb("eval", "--file", str(DEMO_CSV))
    peak = peak_rss_mb("eval", "--file", str(path), code=2)
    assert peak - base < 8, (base, peak)
    done = python_m("eval", "--file", str(path))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"p4metrics: error: line 3: field larger than field limit (131072)\n"


def test_python_m_exits_2_on_one_line():
    done = python_m("eval", "--counts", "0,0,0,0")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"p4metrics: error: all four counts are zero\n"


def large_scored_csv(path, repeats, bad_line=None):
    """Write the demo's rows `repeats` times, over the size at which
    `read_scored_csv` counts a file in ranges, with line `bad_line` bad."""
    header, *rows = DEMO_CSV.read_bytes().splitlines(keepends=True)
    rows *= repeats
    if bad_line is not None:
        rows[bad_line - 2] = b"0.5,maybe\n"
    path.write_bytes(header + b"".join(rows))
    assert path.stat().st_size >= 4 << 20


# 300,001 lines in 4.5 MB, counted in 3 ranges: one bad line in each
@pytest.mark.parametrize("bad_line", [100, 150_000, 299_000])
def test_a_bad_row_in_a_large_file_is_named_by_its_line(capsys, monkeypatch, tmp_path, bad_line):
    path = tmp_path / "scores.csv"
    large_scored_csv(path, 1_500, bad_line)
    expected = (2, "", f"p4metrics: error: line {bad_line}: unknown label 'maybe'\n")
    monkeypatch.setattr(confusion, "_cpus", lambda: 3)
    assert run_cli(capsys, "eval", "--file", str(path)) == expected
    monkeypatch.setattr(confusion, "_cpus", lambda: 1)
    assert run_cli(capsys, "eval", "--file", str(path)) == expected


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_pipe_is_read_without_a_fork(tmp_path):
    path = tmp_path / "scores.csv"
    large_scored_csv(path, 5_000)  # 10**6 rows
    on_file = python_m("eval", "--file", str(path), "--format", "json")
    assert (on_file.returncode, on_file.stderr) == (0, b"")
    # the same rows through a pipe, in a child whose os.fork fails the run
    script = (
        "import os, sys\n"
        "def fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = fork\n"
        "from p4metrics.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "eval", "--file", "/dev/stdin", "--format", "json"],
                          input=path.read_bytes(), capture_output=True, env=child_env())
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == on_file.stdout


def run_main(*argv):
    """(exit status, stdout, stderr) of `main(argv)` in this process, without
    capsys, which a hypothesis test cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def assert_oracle_metrics(values, counts):
    """Each metric value is the oracle's for `counts`, or nan where it is Undefined."""
    for name, value, want in zip(METRIC_NAMES, values, oracles.report(*counts), strict=True):
        if want is None:
            assert math.isnan(value), name
        else:
            assert abs(value - float(want)) <= 1e-12, name


def optimum_line(keys, pairs, y_name):
    """The `optimal tau` line `sweep` prints for `pairs` over `keys`, or None
    with no defined point: the oracle's optimum, with ties in float distance
    going to the smallest tau."""
    oracle = oracles.best_threshold(keys, pairs, y_name)
    if oracle is None:
        return None
    distances = {tau: float_distance(ConfusionMatrix(*oracles.classify_counts(pairs, tau)), y_name) for tau in keys}
    distance = min(d for d in distances.values() if d is not None)
    assert abs(distance - float(oracle[1])) <= 1e-12
    tau = min(tau for tau in keys if distances[tau] == distance)
    return f"optimal tau (mcc-{y_name}) = {tau:g} (distance {distance:.6f})\n"


# a split_bytes under 64 has the file counted in ranges, as in TestSplitRead in test_confusion.py
@settings(max_examples=150, deadline=None)
@given(text=scored_csv_texts(), tau=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | unit_floats,
       delta=st.sampled_from([0.01, 0.03, 0.1, 1 / 7, 0.25, 1.0]) | st.floats(min_value=0.01, max_value=1.0),
       split_bytes=st.just(confusion._SPLIT_BYTES) | st.integers(min_value=1, max_value=64),
       cpus=st.integers(min_value=2, max_value=4))
@example(text="score,label\n0.5,1\n0.25,0\n0.5,1\n0.25,0\n", tau=0.25, delta=0.25, split_bytes=16, cpus=2)
@example(text="score,label\n0.5,1\n0.25,0\n0.5,1\n0.25,0\n0.5,maybe\n0.5,1\n", tau=0.5, delta=0.1, split_bytes=16,
         cpus=3)
def test_the_cli_agrees_with_the_oracles(scored_path, text, tau, delta, split_bytes, cpus):
    scored_path.write_bytes(text.encode())
    curve = scored_path.with_name("curve.csv")
    curve.unlink(missing_ok=True)
    limit = csv.field_size_limit(24)  # so that the long score of scored_csv_texts() is a csv error
    try:
        expected = oracles.parse_scored_rows(io.StringIO(text, newline=""))
        with patch.object(confusion, "_SPLIT_BYTES", split_bytes), patch.object(confusion, "_cpus", lambda: cpus):
            evals = [run_main("eval", "--file", str(scored_path), "--tau", repr(tau), "--format", form)
                     for form in ("csv", "json")]
            swept = run_main("sweep", "--file", str(scored_path), "--delta", repr(delta), "--pair", "both",
                             "--out", str(curve))
    finally:
        csv.field_size_limit(limit)
    if expected[0] == "error" or not expected[1]:
        message = f"line {expected[1]}: {expected[2]}" if expected[0] == "error" else "no samples"
        assert evals == [(2, "", f"p4metrics: error: {message}\n")] * 2
        assert swept == (2, "", f"p4metrics: error: {message}\n")
        assert not curve.exists()
        return
    pairs = expected[1]
    counts = oracles.classify_counts(pairs, tau)
    (rc, out, err), (json_rc, json_out, json_err) = evals
    assert (rc, err, json_rc, json_err) == (0, "", 0, "")
    header, row = csv.reader(io.StringIO(out))
    assert header == list(csvio.COLUMNS)
    assert tuple(map(int, row[:4])) == counts
    assert_oracle_metrics(map(float, row[4:]), counts)
    record = json.loads(json_out)
    assert record["counts"] == dict(zip(csvio.COUNT_COLUMNS, counts))
    assert list(record["metrics"]) == list(METRIC_NAMES)
    assert_oracle_metrics(record["metrics"].values(), counts)
    keys = make_grid(0.0, 1.0, delta)
    lines = {y_name: optimum_line(keys, pairs, y_name) for y_name in ("f1", "p4")}
    if None in lines.values():
        pair = next(y_name for y_name, line in lines.items() if line is None)
        assert swept == (2, "", f"p4metrics: error: no fully defined points on the mcc-{pair} curve\n")
        assert not curve.exists()
        return
    assert swept == (0, "".join(lines.values()), "")
    key_column, written_keys, rows = oracles.read_metrics_csv(curve)
    assert (key_column, tuple(map(float, written_keys))) == ("tau", keys)
    assert [row[:4] for row in rows] == [oracles.classify_counts(pairs, k) for k in keys]
    assert rows == [csvio.row(row[:4]) for row in rows]
