import csv
import io
import math
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from p4metrics import (
    BadGridError,
    ConfusionMatrix,
    CsvFormatError,
    EmptyInputError,
    MetricSeries,
    NoDefinedPointsError,
    ScoredSamples,
    evaluate_all,
    optimal_threshold,
    read_curve_csv,
    threshold_sweep,
    tpr_sweep,
    write_curve_csv,
)
from p4metrics import csvio, sweep
from p4metrics.metrics import METRIC_NAMES
from p4metrics.sweep import make_grid
from conftest import DEMO_BEST, DEMO_COUNTS_AT_HALF, samples_from, unit_floats
import oracles

SEPARABLE = samples_from([(0.9, True), (0.2, False)])


def key_rows(series):
    """The row of each key's run, one per key."""
    return [row for start, end, row in series.runs for _ in range(start, end)]


def cell(row, name):
    return row[csvio.COLUMNS.index(name)]


@st.composite
def hard_sweeps(draw):
    """(delta, pairs) on an odd grid, with scores often tied and often equal
    to a grid tau, and sometimes only one class."""
    delta = draw(st.sampled_from((0.03, 0.07, 0.013, 0.01, 0.3)))
    ties = draw(st.lists(unit_floats, min_size=1, max_size=3))
    scores = st.one_of(st.sampled_from(make_grid(0.0, 1.0, delta)), st.sampled_from(ties), unit_floats)
    labels = draw(st.sampled_from(((True,), (False,), (True, False))))
    return delta, draw(st.lists(st.tuples(scores, st.sampled_from(labels)), min_size=1, max_size=60))


@st.composite
def decimal_grids(draw):
    """(tau0, tau_n, delta) as decimals, at most 300 steps apart: endpoints
    with 5 places in [0, 1] and a delta with 1-5 places or the repr of a
    float 1/k, or 0, 1 and such a 1/k, whose last sum below 1 may round to 1."""
    places = draw(st.integers(1, 5))
    reciprocals = st.integers(1, 300).map(lambda k: Decimal(repr(1 / k)))
    if draw(st.booleans()):
        return Decimal(0), Decimal(1), draw(reciprocals)
    delta = draw(st.one_of(st.integers(1, 10**places).map(lambda i: Decimal(i).scaleb(-places)), reciprocals))
    tau0 = draw(st.decimals(0, Decimal("0.99999"), places=5))
    tau_n = draw(st.decimals(tau0 + Decimal("0.00001"), min(Decimal(1), tau0 + 300 * delta), places=5))
    return tau0, tau_n, delta


class TestMakeGrid:
    def test_default_has_101_points(self):
        taus = make_grid(0.0, 1.0, 0.01)
        assert len(taus) == 101
        assert taus[0] == 0.0 and taus[-1] == 1.0

    def test_endpoint_is_appended_exactly(self):
        taus = make_grid(0.0, 1.0, 0.3)
        assert taus[-1] == 1.0
        assert len(taus) == 5  # 0, 0.3, 0.6, 0.9, 1.0

    def test_bad_grids(self):
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.0, 0.0)
        with pytest.raises(BadGridError):
            make_grid(0.5, 0.5, 0.1)
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.5, 0.1)
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.0, math.nan)
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.0, math.inf)
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.0, 1e-9)  # over MAX_GRID_SIZE, refused before allocating
        with pytest.raises(BadGridError):
            make_grid(0.0, 1.0, 9.99999e-06)  # one tau over MAX_GRID_SIZE
        with pytest.raises(BadGridError):
            make_grid(math.nan, 1.0, 0.1)
        with pytest.raises(BadGridError):
            make_grid(0.0, math.inf, 0.1)

    def test_sums_that_round_to_one_float_give_one_key(self):
        # 7 * 0.14285714285714285 is 0.99999999999999995, which rounds to 1.0
        taus = make_grid(0.0, 1.0, 1 / 7)
        assert len(taus) == 8 and taus[-2:] == (0.8571428571428571, 1.0)
        # 0.1 + 1e-17 rounds to 0.1, a step below the float spacing there
        assert make_grid(0.1, 0.10000000000000002, 1e-17) == (0.1, 0.10000000000000002)

    def test_size_cap_admits_a_fine_grid(self):
        assert make_grid(0.0, 1.0, 0.0001) == tuple(i / 10_000 for i in range(10_001))
        assert len(make_grid(0.0, 1.0, 1e-5)) == sweep.MAX_GRID_SIZE

    @settings(max_examples=200, deadline=None)
    @given(decimal_grids(), st.data())
    def test_keys_are_the_decimal_grid(self, grid, data):
        tau0, tau_n, delta = (float(value) for value in grid)
        keys = make_grid(tau0, tau_n, delta)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        below = []  # the exact decimal sums tau0 + i * delta below tau_n
        while (value := Decimal(repr(tau0)) + len(below) * Decimal(repr(delta))) < Decimal(repr(tau_n)):
            below.append(value)
        # each distinct float of a sum below tau_n other than tau_n is a key, then tau_n and nothing more
        assert keys == (*dict.fromkeys(float(value) for value in below if float(value) != tau_n), tau_n)
        # samples scored at grid values: each is negative at its own key and every key above it
        drawn = data.draw(st.lists(st.tuples(st.integers(0, len(keys) - 2), st.booleans()), min_size=1, max_size=30))
        pairs = [(keys[i], is_positive) for i, is_positive in drawn]
        curve = threshold_sweep(samples_from(pairs), tau0, tau_n, delta)
        assert curve.keys == keys
        for j, (tau, matrix) in enumerate(zip(curve.keys, curve.matrices)):
            assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == oracles.classify_counts(pairs, tau)
            assert matrix.predicted_positives == sum(1 for i, _ in drawn if i > j)

    def test_grid_is_checked_once_per_sweep(self, demo_samples, monkeypatch):
        full_checks = 0
        check_grid = sweep.check_grid

        def counted(key_column, keys):
            nonlocal full_checks
            full_checks += len(keys) > 2
            check_grid(key_column, keys)

        monkeypatch.setattr(sweep, "check_grid", counted)
        threshold_sweep(demo_samples, delta=0.0001)
        assert full_checks == 1


class TestThresholdSweep:
    def test_separable_pair_three_points(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        assert curve.keys == (0.0, 0.5, 1.0)
        assert [m.predicted_positives for m in curve.matrices] == [2, 1, 0]

    def test_constant_scores_flip_at_half(self):
        samples = samples_from([(0.5, True), (0.5, False)])
        curve = threshold_sweep(samples, 0.0, 1.0, 0.25)
        matrices = curve.matrices
        assert matrices[0] == matrices[1]  # tau 0 and 0.25: everything positive
        assert matrices[2].predicted_positives == 0  # strict comparison at 0.5

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ScoredSamples((), ())

    def test_demo_point_at_half_matches_oracle(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        assert len(curve.keys) == 101
        index = curve.keys.index(0.5)
        matrix = curve.matrices[index]
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == DEMO_COUNTS_AT_HALF

    def test_predicted_positives_non_increasing(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        counts = [m.predicted_positives for m in curve.matrices]
        assert counts == sorted(counts, reverse=True)
        assert {m.population for m in curve.matrices} == {200}

    def test_reports_match_recomputation(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.05)
        assert key_rows(curve) == [csvio.row(matrix) for matrix in curve.matrices]

    @settings(max_examples=200, deadline=None)
    @given(hard_sweeps())
    def test_matches_oracle_on_hard_inputs(self, case):
        delta, pairs = case
        curve = threshold_sweep(samples_from(pairs), delta=delta)
        assert curve.keys == make_grid(0.0, 1.0, delta)
        for tau, matrix, row in zip(curve.keys, curve.matrices, key_rows(curve), strict=True):
            assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == oracles.classify_counts(pairs, tau)
            assert row == csvio.row(matrix)
        for y_name in ("f1", "p4"):
            oracle = oracles.best_threshold(curve.keys, pairs, y_name)
            if oracle is None:
                with pytest.raises(NoDefinedPointsError):
                    optimal_threshold(curve, y_name)
                continue
            best = optimal_threshold(curve, y_name)
            assert abs(best.distance - float(oracle[1])) <= 1e-12
            # the smallest tau whose float distance equals the optimum's
            assert best.tau == min(
                tau for tau, matrix in zip(curve.keys, curve.matrices) if float_distance(matrix, y_name) == best.distance
            )

    def test_evaluates_each_distinct_matrix_once(self, demo_samples, monkeypatch):
        calls = 0
        closed_forms = csvio._closed_forms

        def counted(*counts):
            nonlocal calls
            calls += 1
            return closed_forms(*counts)

        monkeypatch.setattr(csvio, "_closed_forms", counted)
        curve = threshold_sweep(demo_samples, delta=0.0001)
        assert len(curve.keys) == 10_001
        assert calls == len(curve.runs) == 169
        # the runs tile the keys in order, each with the row of its matrix
        starts, ends, rows = zip(*curve.runs)
        assert starts == (0, *ends[:-1]) and ends[-1] == len(curve.keys)
        assert rows == tuple(csvio.row(curve.matrices[start]) for start in starts)
        # neighbours share a run exactly when their matrices are equal
        run_of = [index for index, (start, end, _) in enumerate(curve.runs) for _ in range(start, end)]
        for i in range(len(curve.keys) - 1):
            assert (run_of[i] == run_of[i + 1]) == (curve.matrices[i] == curve.matrices[i + 1])

    @pytest.mark.parametrize("tau0, tau_n", [(0.0, 1.0), (0.25, 0.75)])
    def test_counts_once_per_run_of_taus(self, demo_samples, monkeypatch, tau0, tau_n):
        calls = 0
        matrix_at = ScoredSamples.matrix_at

        def counted(samples, tau):
            nonlocal calls
            calls += 1
            return matrix_at(samples, tau)

        monkeypatch.setattr(ScoredSamples, "matrix_at", counted)
        curve = threshold_sweep(demo_samples, tau0, tau_n, delta=0.0001)
        assert len(curve.keys) == round((tau_n - tau0) / 0.0001) + 1
        assert calls <= len({*demo_samples.positive_scores, *demo_samples.negative_scores}) + 1
        for tau, matrix in zip(curve.keys, curve.matrices):
            assert matrix == matrix_at(demo_samples, tau)

    def test_halving_delta_keeps_coarse_points(self, demo_samples):
        coarse = threshold_sweep(demo_samples, delta=0.02)
        fine = threshold_sweep(demo_samples, delta=0.01)
        fine_by_tau = dict(zip(fine.keys, fine.matrices))
        for tau, matrix in zip(coarse.keys, coarse.matrices):
            assert tau in fine_by_tau
            assert fine_by_tau[tau] == matrix


class TestPairedCurve:
    """A tau-keyed series seen in the (scaled MCC, F1-or-P4) plane."""

    def test_perfect_point_exists(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        perfect = [
            tau
            for tau, row in zip(curve.keys, key_rows(curve))
            if cell(row, "mcc_scaled") == 1.0 and cell(row, "f1") == 1.0
        ]
        assert perfect == [0.5]

    def test_all_negative_endpoint_is_flagged(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        assert curve.keys[-1] == 1.0
        last = evaluate_all(curve.matrices[-1])
        assert not last.mcc_scaled.is_defined  # MCC has an empty predicted-positive margin
        assert last.f1.value == 0.0  # F1 closed form survives with tp = 0

    def test_points_match_per_point_recomputation(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.1)
        reports = [evaluate_all(matrix) for matrix in curve.matrices]
        for y_name in ("f1", "p4"):
            for row, report in zip(key_rows(curve), reports, strict=True):
                assert cell(row, "mcc_scaled") == report.mcc_scaled.value
                assert cell(row, y_name) == getattr(report, y_name).value
        assert any(
            report.f1.is_defined and report.p4.is_defined and report.f1.value != report.p4.value
            for report in reports
        )

    def test_unknown_metric_rejected(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.5)
        with pytest.raises(ValueError, match="y_metric must be one of"):
            optimal_threshold(curve, "accuracy")

    def test_non_tau_series_rejected(self):
        with pytest.raises(ValueError, match="tau-keyed"):
            optimal_threshold(tpr_sweep(100, 0.5, 0.5), "f1")


def format_value(value):
    return repr(value.value) if value.is_defined else "nan"


def float_distance(matrix, y_name):
    """The matrix's float distance to (1, 1), or None with an undefined coordinate."""
    report = evaluate_all(matrix)
    x, y = report.mcc_scaled, getattr(report, y_name)
    if not (x.is_defined and y.is_defined):
        return None
    return math.hypot(1.0 - x.value, 1.0 - y.value)


class TestOptimalThreshold:
    def test_perfect_point_gives_zero_distance(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        best = optimal_threshold(curve, "p4")
        assert best.tau == 0.5
        assert best.distance == 0.0
        assert best.metric_pair == "mcc-p4"

    @pytest.mark.parametrize("pair", ["mcc-f1", "mcc-p4"])
    def test_demo_matches_exhaustive_oracle(self, pair, demo_samples, demo_pairs):
        curve = threshold_sweep(demo_samples)
        y_name = pair.removeprefix("mcc-")
        best = optimal_threshold(curve, y_name)
        oracle_tau, oracle_distance = oracles.best_threshold(curve.keys, demo_pairs, y_name)
        assert best.tau == oracle_tau
        assert abs(best.distance - float(oracle_distance)) <= 1e-12
        frozen_tau, frozen_distance = DEMO_BEST[pair]
        assert best.tau == frozen_tau
        assert abs(best.distance - frozen_distance) <= 1e-12

    def test_tie_breaks_on_smallest_tau(self):
        # every tau inside the separation gap gives the same perfect matrix
        curve = threshold_sweep(SEPARABLE, 0.3, 0.7, 0.2)
        best = optimal_threshold(curve, "f1")
        assert best.distance == 0.0
        assert best.tau == 0.3

    def test_no_defined_points(self):
        # one-class input: the true-negative margin is empty at every tau
        samples = samples_from([(0.3, True), (0.8, True)])
        curve = threshold_sweep(samples, 0.0, 1.0, 0.25)
        with pytest.raises(NoDefinedPointsError):
            optimal_threshold(curve, "p4")


class TestMetricSeries:
    @pytest.mark.parametrize("keys", [(), (0.5, 0.4), (0.0, 0.5), (0.5, 1.0)])
    def test_rejects_a_bad_fraction_grid(self, keys):
        with pytest.raises(BadGridError):
            MetricSeries("pos_fraction", keys, (ConfusionMatrix(1, 2, 3, 4),) * len(keys))

    def test_admits_rate_endpoints(self):
        matrix = ConfusionMatrix(1, 2, 3, 4)
        assert MetricSeries("tpr", (0.0, 1.0), (matrix, matrix)).keys == (0.0, 1.0)

    def test_rejects_keys_and_matrices_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            MetricSeries("tau", (0.0, 1.0), (ConfusionMatrix(1, 2, 3, 4),))

    def test_rejects_an_unknown_key_column(self):
        with pytest.raises(BadGridError, match="^unknown key column 'case'"):
            MetricSeries("case", (0.5,), (ConfusionMatrix(1, 2, 3, 4),))


class TestCurveCsv:
    def test_round_trip_is_lossless(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples, delta=0.05)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue())

        parsed = read_curve_csv(path)
        assert parsed.keys == curve.keys
        assert parsed.matrices == curve.matrices
        assert key_rows(parsed) == key_rows(curve)

    def test_shared_points_write_the_bytes_of_row_by_row_formatting(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.0001)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        lines = [",".join(("tau", *csvio.COUNT_COLUMNS, *METRIC_NAMES))]
        for tau, matrix in zip(curve.keys, curve.matrices):
            report = evaluate_all(matrix)
            counts = (str(count) for count in (matrix.tp, matrix.fp, matrix.fn, matrix.tn))
            lines.append(",".join((repr(tau), *counts, *map(format_value, report.as_dict().values()))))
        written = buffer.getvalue().split("\n")
        assert written[-1] == "" and len(written) == len(lines) + 1
        for got, expected in zip(written, lines):
            assert got == expected

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.text(alphabet=',"\r\n a1', max_size=5), st.booleans()), max_size=6))
    def test_key_cells_are_written_as_csv_writer_writes_them(self, rows):
        matrices = (ConfusionMatrix(1, 2, 3, 4), ConfusionMatrix(0, 0, 5, 5))
        rows = [(key, matrices[second]) for key, second in rows]
        buffer = io.StringIO()
        csvio.write_rows(buffer, [(key, csvio.row(matrix)) for key, matrix in rows], key_column="case")
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("case", *csvio.COUNT_COLUMNS, *METRIC_NAMES))
        for key, matrix in rows:
            values = map(format_value, evaluate_all(matrix).as_dict().values())
            writer.writerow((key, matrix.tp, matrix.fp, matrix.fn, matrix.tn, *values))
        assert buffer.getvalue() == expected.getvalue()

    def test_read_back_curve_shares_points_like_the_sweep(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples)
        path = tmp_path / "curve.csv"
        with open(path, "w", newline="") as fh:
            write_curve_csv(curve, fh)
        parsed = read_curve_csv(path)
        assert parsed == curve
        assert len(curve.runs) == 84
        assert parsed.runs == curve.runs
        for y_name in ("f1", "p4"):
            assert optimal_threshold(parsed, y_name) == optimal_threshold(curve, y_name)

    def test_read_back_evaluates_each_run_once_per_pass(self, demo_samples, tmp_path, monkeypatch):
        curve = threshold_sweep(demo_samples, delta=0.0001)
        path = tmp_path / "curve.csv"
        with open(path, "w", newline="") as fh:
            write_curve_csv(curve, fh)
        calls = 0
        closed_forms = csvio._closed_forms

        def counted(*counts):
            nonlocal calls
            calls += 1
            return closed_forms(*counts)

        monkeypatch.setattr(csvio, "_closed_forms", counted)
        assert read_curve_csv(path) == curve
        # once where the reader checks a run's cells, once where the series evaluates it
        assert calls == 2 * len(curve.runs) == 338

    def test_undefined_round_trips_as_nan(self, tmp_path):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        text = buffer.getvalue()
        assert "nan" in text  # tau = 1.0 row has undefined MCC
        path = tmp_path / "curve.csv"
        path.write_text(text)
        parsed = read_curve_csv(path)
        assert cell(key_rows(parsed)[-1], "mcc") is None

    def test_non_increasing_keys_rejected(self, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        header, *rows = buffer.getvalue().splitlines(keepends=True)
        path = tmp_path / "curve.csv"
        path.write_text(header + rows[1] + rows[0] + rows[2])
        with pytest.raises(BadGridError):
            read_curve_csv(path)

    def test_simulation_series_round_trips(self, tmp_path):
        series = tpr_sweep(1000, 0.3, 0.9)
        buffer = io.StringIO()
        write_curve_csv(series, buffer)
        path = tmp_path / "tpr.csv"
        path.write_text(buffer.getvalue())
        assert read_curve_csv(path) == series

    def test_case_keyed_csv_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [("C1", csvio.row(ConfusionMatrix(1, 2, 3, 4)))], key_column="case")
        with pytest.raises(CsvFormatError, match="^line 2: bad value 'C1' for case$"):
            read_curve_csv(path)

    @pytest.mark.parametrize("keys, key_column", [
        ([""], None),
        (["0.25", "0.5"], "case"),
    ], ids=["no-key-column", "numeric-cases"])
    def test_a_csv_without_a_series_key_column_is_rejected(self, tmp_path, keys, key_column):
        # the `cases` and `eval --format csv` layouts are not series
        values = csvio.row(ConfusionMatrix(1, 2, 3, 4))
        path = tmp_path / "cases.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [(key, values) for key in keys], key_column=key_column)
        message = rf"^expected a key column out of \('tau', 'pos_fraction', 'tpr'\), got {key_column!r}$"
        with pytest.raises(CsvFormatError, match=message):
            read_curve_csv(path)

    def test_quoted_newline_keeps_physical_line_numbers(self, tmp_path):
        matrix = ConfusionMatrix(1, 2, 3, 4)
        path = tmp_path / "cases.csv"
        with open(path, "w", newline="") as fh:
            # the key "C\n1" is quoted across lines 2-3, so the bad row is on line 4
            csvio.write_rows(fh, [("C\n1", csvio.row(matrix))], key_column="case")
            fh.write("C2,1\n")
        assert path.read_text().split("\n")[3] == "C2,1"
        with pytest.raises(CsvFormatError, match="line 4: expected"):
            csvio.read_rows(path)

    def test_a_bad_record_is_named_by_the_line_it_starts_on(self, tmp_path):
        path = tmp_path / "curve.csv"
        header = ",".join(("tau", *csvio.COUNT_COLUMNS, *METRIC_NAMES))
        # the record '0.5,"maybe\n"' spans lines 2-3
        path.write_text(f'{header}\n0.5,"maybe\n"\n0.4,1\n')
        with pytest.raises(CsvFormatError, match="^line 2: expected 17 fields, got 2$"):
            csvio.read_rows(path)

    @pytest.mark.parametrize(
        "bad_cells, message",
        [
            ({"tau": "half"}, "bad value 'half' for tau"),
            ({"prec": "1.5"}, "prec 1.5 does not match its counts, which give nan"),
            ({"prec": "-0.5"}, "prec -0.5 does not match its counts, which give nan"),
            ({"prec": "inf"}, "prec inf does not match its counts, which give nan"),
            ({"mcc": "-1.5"}, "mcc -1.5 does not match its counts, which give nan"),
            ({"tn": "-1"}, "tn must be non-negative, got -1"),
            ({"fn": "0", "tn": "0"}, "all four counts are zero"),
            ({"tp": "9" * 85, "tn": "9" * 85}, "int too large to convert to float"),
        ],
        ids=[
            "key", "rate-above-1", "rate-below-0", "rate-inf", "signed-below-minus-1", "negative-count", "zero-counts",
            "counts-too-large",
        ],
    )
    def test_a_bad_cell_is_named_by_the_line_it_starts_on(self, tmp_path, bad_cells, message):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        header, first, second, third = buffer.getvalue().splitlines(keepends=True)
        columns = header.rstrip("\n").split(",")
        cells = third.rstrip("\n").split(",")
        for column, text in bad_cells.items():
            cells[columns.index(column)] = text
        path = tmp_path / "curve.csv"
        # the key "0.5\n" is quoted across lines 3-4, so the bad record starts on line 5
        path.write_text(header + first + '"0.5\n"' + second[3:] + ",".join(cells) + "\n")
        with pytest.raises(CsvFormatError, match=f"^line 5: {re.escape(message)}$"):
            read_curve_csv(path)

    def test_a_metric_cell_its_counts_do_not_give_is_rejected(self, demo_samples, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(demo_samples), buffer)
        *lines, last = buffer.getvalue().splitlines(keepends=True)
        cells = last.rstrip("\n").split(",")
        assert cells[:5] == ["1.0", "0", "0", "60", "140"]
        columns = lines[0].rstrip("\n").split(",")
        cells[columns.index("prec")], cells[columns.index("mcc")] = "0.25", "0.9"
        path = tmp_path / "curve.csv"
        path.write_text("".join(lines) + ",".join(cells) + "\n")
        with pytest.raises(CsvFormatError, match="^line 102: prec 0.25 does not match its counts, which give nan$"):
            read_curve_csv(path)
        cells[columns.index("prec")] = "nan"  # the next cell off its counts is named next
        path.write_text("".join(lines) + ",".join(cells) + "\n")
        with pytest.raises(CsvFormatError, match="^line 102: mcc 0.9 does not match its counts, which give nan$"):
            read_curve_csv(path)

    def test_a_defined_value_written_as_nan_is_rejected(self, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue().replace("0.5,1,0,0,1,1.0,", "0.5,1,0,0,1,nan,"))
        with pytest.raises(CsvFormatError, match="^line 3: prec nan does not match its counts, which give 1.0$"):
            read_curve_csv(path)

    def test_header_only_file_is_an_empty_grid(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(",".join(("tau", *csvio.COLUMNS)) + "\n")
        with pytest.raises(BadGridError, match="^empty grid$"):
            read_curve_csv(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbftau,")
        assert read_curve_csv(path) == curve

    def test_rows_reader_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="^file is empty$"):
            csvio.read_rows(path)

    def test_rows_reader_rejects_an_unexpected_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("score,label\n0.5,1\n")
        with pytest.raises(CsvFormatError, match="^unexpected header"):
            csvio.read_rows(path)

    def test_rows_reader_rejects_counts_that_are_not_integers(self, tmp_path):
        path = tmp_path / "rows.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [("C1", csvio.row(ConfusionMatrix(1, 2, 3, 4)))], key_column="case")
        path.write_text(path.read_text().replace("C1,1,2,", "C1,1.5,2,"))
        with pytest.raises(CsvFormatError, match=r"^line 2: bad counts \['1.5', '2', '3', '4'\]$"):
            csvio.read_rows(path)

    def test_rows_reader_skips_a_blank_line(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        path = tmp_path / "curve.csv"
        path.write_text("".join(lines[:50]) + "\n" + "".join(lines[50:]))
        assert read_curve_csv(path) == curve
        key_column, rows = csvio.read_rows(path)
        assert key_column == "tau" and len(rows) == len(curve.keys)

    def test_oversized_field_rejected(self, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue() + "0." + "1" * 200_000 + ",1\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            read_curve_csv(path)
