import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from p4metrics import (
    BadGridError,
    ConfusionMatrix,
    CsvFormatError,
    EmptyInputError,
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


@st.composite
def hard_sweeps(draw):
    """(delta, pairs) on an odd grid, with scores often tied and often equal
    to a grid tau, and sometimes only one class."""
    delta = draw(st.sampled_from((0.03, 0.07, 0.013, 0.01, 0.3)))
    ties = draw(st.lists(unit_floats, min_size=1, max_size=3))
    scores = st.one_of(st.sampled_from(make_grid(0.0, 1.0, delta)), st.sampled_from(ties), unit_floats)
    labels = draw(st.sampled_from(((True,), (False,), (True, False))))
    return delta, draw(st.lists(st.tuples(scores, st.sampled_from(labels)), min_size=1, max_size=60))


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
            make_grid(math.nan, 1.0, 0.1)
        with pytest.raises(BadGridError):
            make_grid(0.0, math.inf, 0.1)

    def test_size_cap_admits_a_fine_grid(self):
        assert len(make_grid(0.0, 1.0, 0.0001)) == 10_001


class TestThresholdSweep:
    def test_separable_pair_three_points(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        assert curve.keys == (0.0, 0.5, 1.0)
        assert [p.matrix.predicted_positives for p in curve.points] == [2, 1, 0]

    def test_constant_scores_flip_at_half(self):
        samples = samples_from([(0.5, True), (0.5, False)])
        curve = threshold_sweep(samples, 0.0, 1.0, 0.25)
        matrices = [p.matrix for p in curve.points]
        assert matrices[0] == matrices[1]  # tau 0 and 0.25: everything positive
        assert matrices[2].predicted_positives == 0  # strict comparison at 0.5

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ScoredSamples((), ())

    def test_demo_point_at_half_matches_oracle(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        assert len(curve.keys) == 101
        index = curve.keys.index(0.5)
        matrix = curve.points[index].matrix
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == DEMO_COUNTS_AT_HALF

    def test_predicted_positives_non_increasing(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        counts = [p.matrix.predicted_positives for p in curve.points]
        assert counts == sorted(counts, reverse=True)
        assert {p.matrix.population for p in curve.points} == {200}

    def test_reports_match_recomputation(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.05)
        for point in curve.points:
            assert point.report == evaluate_all(point.matrix)

    @settings(max_examples=200, deadline=None)
    @given(hard_sweeps())
    def test_matches_oracle_on_hard_inputs(self, case):
        delta, pairs = case
        curve = threshold_sweep(samples_from(pairs), delta=delta)
        assert curve.keys == make_grid(0.0, 1.0, delta)
        for tau, point in zip(curve.keys, curve.points):
            matrix = point.matrix
            assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == oracles.classify_counts(pairs, tau)
            assert point.report == evaluate_all(matrix)
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
                tau for tau, point in zip(curve.keys, curve.points) if float_distance(point, y_name) == best.distance
            )

    def test_evaluates_each_distinct_matrix_once(self, demo_samples, monkeypatch):
        calls = 0

        def counted(matrix):
            nonlocal calls
            calls += 1
            return evaluate_all(matrix)

        monkeypatch.setattr(sweep, "evaluate_all", counted)
        curve = threshold_sweep(demo_samples, delta=0.0001)
        assert len(curve.keys) == 10_001
        assert calls <= len({point.matrix for point in curve.points})
        for a, b in zip(curve.points, curve.points[1:]):
            assert (a is b) == (a.matrix == b.matrix)

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
        for tau, point in zip(curve.keys, curve.points):
            assert point.matrix == matrix_at(demo_samples, tau)

    def test_halving_delta_keeps_coarse_points(self, demo_samples):
        coarse = threshold_sweep(demo_samples, delta=0.02)
        fine = threshold_sweep(demo_samples, delta=0.01)
        fine_by_tau = dict(zip(fine.keys, fine.points))
        for tau, point in zip(coarse.keys, coarse.points):
            assert tau in fine_by_tau
            assert fine_by_tau[tau].matrix == point.matrix


class TestPairedCurve:
    """A tau-keyed series seen in the (scaled MCC, F1-or-P4) plane."""

    def test_perfect_point_exists(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        perfect = [
            tau
            for tau, point in zip(curve.keys, curve.points)
            if point.report.mcc_scaled.value == 1.0 and point.report.f1.value == 1.0
        ]
        assert perfect == [0.5]

    def test_all_negative_endpoint_is_flagged(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        assert curve.keys[-1] == 1.0
        last = curve.points[-1].report
        assert not last.mcc_scaled.is_defined  # MCC has an empty predicted-positive margin
        assert last.f1.value == 0.0  # F1 closed form survives with tp = 0

    def test_points_match_per_point_recomputation(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.1)
        for y_name in ("f1", "p4"):
            for tau, point in zip(curve.keys, curve.points):
                report = evaluate_all(point_matrix(curve, tau))
                assert point.report.mcc_scaled == report.mcc_scaled
                assert getattr(point.report, y_name) == getattr(report, y_name)
        assert any(
            report.f1.is_defined and report.p4.is_defined and report.f1.value != report.p4.value
            for report in (point.report for point in curve.points)
        )

    def test_unknown_metric_rejected(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.5)
        with pytest.raises(ValueError, match="y_metric must be one of"):
            optimal_threshold(curve, "accuracy")

    def test_non_tau_series_rejected(self):
        with pytest.raises(ValueError, match="tau-keyed"):
            optimal_threshold(tpr_sweep(100, 0.5, 0.5), "f1")


def point_matrix(curve, tau):
    return curve.points[curve.keys.index(tau)].matrix


def float_distance(point, y_name):
    """The point's float distance to (1, 1), or None with an undefined coordinate."""
    x, y = point.report.mcc_scaled, getattr(point.report, y_name)
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


class TestCurveCsv:
    def test_round_trip_is_lossless(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples, delta=0.05)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue())

        parsed = read_curve_csv(path)
        assert parsed.keys == curve.keys
        for ours, theirs in zip(curve.points, parsed.points):
            assert ours.matrix == theirs.matrix
            assert ours.report == theirs.report

    def test_shared_points_write_the_bytes_of_row_by_row_formatting(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.0001)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        lines = [",".join(("tau", *csvio.COUNT_COLUMNS, *METRIC_NAMES))]
        for tau, (matrix, report) in zip(curve.keys, curve.points):
            counts = (str(count) for count in (matrix.tp, matrix.fp, matrix.fn, matrix.tn))
            values = (csvio.format_value(value) for value in report.as_dict().values())
            lines.append(",".join((repr(tau), *counts, *values)))
        written = buffer.getvalue().split("\n")
        assert written[-1] == "" and len(written) == len(lines) + 1
        for got, expected in zip(written, lines):
            assert got == expected

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.text(alphabet=',"\r\n a1', max_size=5), st.booleans()), max_size=6))
    def test_key_cells_are_written_as_csv_writer_writes_them(self, rows):
        # neighbouring rows that share a matrix and report share formatted cells
        points = [(matrix, evaluate_all(matrix)) for matrix in (ConfusionMatrix(1, 2, 3, 4), ConfusionMatrix(0, 0, 5, 5))]
        rows = [(key, *points[second]) for key, second in rows]
        buffer = io.StringIO()
        csvio.write_rows(buffer, rows, key_column="case")
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("case", *csvio.COUNT_COLUMNS, *METRIC_NAMES))
        for key, matrix, report in rows:
            values = (csvio.format_value(value) for value in report.as_dict().values())
            writer.writerow((key, matrix.tp, matrix.fp, matrix.fn, matrix.tn, *values))
        assert buffer.getvalue() == expected.getvalue()

    def test_read_back_curve_shares_points_like_the_sweep(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples)
        path = tmp_path / "curve.csv"
        with open(path, "w", newline="") as fh:
            write_curve_csv(curve, fh)
        parsed = read_curve_csv(path)
        distinct = len({id(point) for point in curve.points})
        assert distinct == 84
        assert len({id(point) for point in parsed.points}) == distinct
        for y_name in ("f1", "p4"):
            assert optimal_threshold(parsed, y_name) == optimal_threshold(curve, y_name)

    def test_undefined_round_trips_as_nan(self, tmp_path):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        text = buffer.getvalue()
        assert "nan" in text  # tau = 1.0 row has undefined MCC
        path = tmp_path / "curve.csv"
        path.write_text(text)
        parsed = read_curve_csv(path)
        assert not parsed.points[-1].report.mcc.is_defined

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
        matrix = ConfusionMatrix(1, 2, 3, 4)
        path = tmp_path / "cases.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [("C1", matrix, evaluate_all(matrix))], key_column="case")
        with pytest.raises(CsvFormatError):
            read_curve_csv(path)

    def test_quoted_newline_keeps_physical_line_numbers(self, tmp_path):
        matrix = ConfusionMatrix(1, 2, 3, 4)
        path = tmp_path / "cases.csv"
        with open(path, "w", newline="") as fh:
            # the key "C\n1" is quoted across lines 2-3, so the bad row is on line 4
            csvio.write_rows(fh, [("C\n1", matrix, evaluate_all(matrix))], key_column="case")
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

    def test_oversized_field_rejected(self, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue() + "0." + "1" * 200_000 + ",1\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            read_curve_csv(path)
