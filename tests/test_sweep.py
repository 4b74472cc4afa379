import io
import math
import random

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
    paired_curve,
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

    def test_halving_delta_keeps_coarse_points(self, demo_samples):
        coarse = threshold_sweep(demo_samples, delta=0.02)
        fine = threshold_sweep(demo_samples, delta=0.01)
        fine_by_tau = dict(zip(fine.keys, fine.points))
        for tau, point in zip(coarse.keys, coarse.points):
            assert tau in fine_by_tau
            assert fine_by_tau[tau].matrix == point.matrix


class TestPairedCurve:
    def test_perfect_point_exists(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        paired = paired_curve(curve, "f1")
        perfect = [p for p in paired if p.is_defined and p.x.value == 1.0 and p.y.value == 1.0]
        assert len(perfect) == 1
        assert perfect[0].tau == 0.5

    def test_all_negative_endpoint_is_flagged(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        paired = paired_curve(curve, "f1")
        last = paired[-1]
        assert last.tau == 1.0
        assert not last.is_defined  # MCC has an empty predicted-positive margin
        assert last.y.value == 0.0  # F1 closed form survives with tp = 0

    def test_points_match_per_point_recomputation(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.1)
        for y_name in ("f1", "p4"):
            for tau, point in zip(curve.keys, paired_curve(curve, y_name)):
                report = evaluate_all(point_matrix(curve, tau))
                assert point.x == report.mcc_scaled
                assert point.y == getattr(report, y_name)
        f1_points = paired_curve(curve, "f1")
        p4_points = paired_curve(curve, "p4")
        assert any(
            a.is_defined and b.is_defined and a.y.value != b.y.value
            for a, b in zip(f1_points, p4_points)
        )

    def test_unknown_metric_rejected(self, demo_samples):
        curve = threshold_sweep(demo_samples, delta=0.5)
        with pytest.raises(ValueError):
            paired_curve(curve, "accuracy")

    def test_non_tau_series_rejected(self):
        with pytest.raises(ValueError, match="tau-keyed"):
            paired_curve(tpr_sweep(100, 0.5, 0.5), "f1")


def point_matrix(curve, tau):
    return curve.points[curve.keys.index(tau)].matrix


class TestOptimalThreshold:
    def test_perfect_point_gives_zero_distance(self):
        curve = threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5)
        best = optimal_threshold(paired_curve(curve, "p4"))
        assert best.tau == 0.5
        assert best.distance == 0.0
        assert best.metric_pair == "mcc-p4"

    @pytest.mark.parametrize("pair", ["mcc-f1", "mcc-p4"])
    def test_demo_matches_exhaustive_oracle(self, pair, demo_samples, demo_pairs):
        curve = threshold_sweep(demo_samples)
        y_name = pair.removeprefix("mcc-")
        best = optimal_threshold(paired_curve(curve, y_name))
        oracle_tau, oracle_distance = oracles.best_threshold(curve.keys, demo_pairs, y_name)
        assert best.tau == oracle_tau
        assert abs(best.distance - float(oracle_distance)) <= 1e-12
        frozen_tau, frozen_distance = DEMO_BEST[pair]
        assert best.tau == frozen_tau
        assert abs(best.distance - frozen_distance) <= 1e-12

    def test_permutation_invariant(self, demo_samples):
        curve = threshold_sweep(demo_samples)
        paired = paired_curve(curve, "p4")
        best = optimal_threshold(paired)
        shuffled = list(paired)
        random.Random(99).shuffle(shuffled)
        assert optimal_threshold(shuffled) == best

    def test_tie_breaks_on_smallest_tau(self):
        # every tau inside the separation gap gives the same perfect matrix
        curve = threshold_sweep(SEPARABLE, 0.3, 0.7, 0.2)
        best = optimal_threshold(paired_curve(curve, "f1"))
        assert best.distance == 0.0
        assert best.tau == 0.3

    def test_no_defined_points(self):
        # one-class input: the true-negative margin is empty at every tau
        samples = samples_from([(0.3, True), (0.8, True)])
        curve = threshold_sweep(samples, 0.0, 1.0, 0.25)
        with pytest.raises(NoDefinedPointsError):
            optimal_threshold(paired_curve(curve, "p4"))


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

    def test_oversized_field_rejected(self, tmp_path):
        buffer = io.StringIO()
        write_curve_csv(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), buffer)
        path = tmp_path / "curve.csv"
        path.write_text(buffer.getvalue() + "0." + "1" * 200_000 + ",1\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            read_curve_csv(path)
