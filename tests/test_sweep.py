import csv
import io
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from p4metrics import (
    BadGridError,
    ConfusionMatrix,
    EmptyInputError,
    MetricSeries,
    NoDefinedPointsError,
    ScoredSamples,
    classify_at_threshold,
    evaluate_all,
    optimal_threshold,
    threshold_sweep,
    tpr_sweep,
    write_curve_csv,
)
from p4metrics import confusion, csvio, sweep
from p4metrics.metrics import METRIC_NAMES
from p4metrics.sweep import _decimal_ratio, make_grid
from conftest import DEMO_BEST, DEMO_COUNTS_AT_HALF, float_distance, matrices, samples_from, unit_floats
import oracles

SEPARABLE = samples_from([(0.9, True), (0.2, False)])


def key_rows(series):
    """The row of each key's run, one per key."""
    return [row for start, end, row in series.runs for _ in range(start, end)]


def cell(row, name):
    return row[csvio.COLUMNS.index(name)]


def assert_round_trips(series, path):
    """Write `series` to `path` as its curve CSV and check that the oracle reader reads back its key
    column, its keys and, bit for bit, the row of each key's run, which is `csvio.row` of its counts."""
    with open(path, "w", newline="") as fh:
        write_curve_csv(series, fh)
    key_column, keys, rows = oracles.read_metrics_csv(path)
    assert (key_column, tuple(map(float, keys))) == (series.key_column, series.keys)
    assert rows == key_rows(series) == [csvio.row(row[:4]) for row in rows]
    return rows


def rebuilt(key_column, keys, rows):
    """The MetricSeries of `keys` and of a matrix per row's counts, by the public constructor a caller
    uses to make a series again from the columns `oracles.read_metrics_csv` reads from a curve CSV."""
    return MetricSeries(key_column, tuple(keys), tuple(ConfusionMatrix(*row[:4]) for row in rows))


def read_back(path):
    """The series `rebuilt` from the curve CSV at `path`, its keys read as floats."""
    key_column, keys, rows = oracles.read_metrics_csv(path)
    return rebuilt(key_column, map(float, keys), rows)


def written(series, path):
    """`path`, with the curve CSV of `series` written to it."""
    with open(path, "w", newline="") as fh:
        write_curve_csv(series, fh)
    return path


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

    @given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(min_value=0))
    @example(-0.0)
    @example(5e-324)
    @example(1e-05)
    @example(1e16)
    @example(0.1)
    @example(1 / 7)
    def test_decimal_ratio_is_the_decimal_of_str(self, x):
        p, q = _decimal_ratio(x)
        assert Fraction(p, q) == Fraction(Decimal(str(x)))
        assert str(q).rstrip("0") == "1"

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

    # a NaN, a value outside the range and keys out of order, each named as the per-value loops name them:
    # the first value outside the range, else the first pair out of order
    @pytest.mark.parametrize("key_column, keys, message", [
        ("tau", (math.nan,), "tau value nan outside [0, 1]"),
        ("tau", (0.0, math.nan, 1.0), "tau value nan outside [0, 1]"),
        ("tpr", (0.3, 0.2, math.nan), "tpr value nan outside [0, 1]"),
        ("pos_fraction", (math.nan,), "pos_fraction value nan outside (0, 1)"),
        ("pos_fraction", (0.0, 0.5), "pos_fraction value 0.0 outside (0, 1)"),
        ("tau", (0.2, 1.5, 0.1), "tau value 1.5 outside [0, 1]"),
        ("tau", (0.5, 1.5), "tau value 1.5 outside [0, 1]"),
        ("tau", (-0.5, 0.5), "tau value -0.5 outside [0, 1]"),
        ("pos_fraction", (0.25, 1.0), "pos_fraction value 1.0 outside (0, 1)"),
        ("tau", (0.5, 0.5), "tau values must be strictly increasing, got 0.5 before 0.5"),
        ("tau", (0.1, 0.3, 0.2, 0.4), "tau values must be strictly increasing, got 0.3 before 0.2"),
    ])
    def test_a_bad_grid_names_its_first_bad_value(self, key_column, keys, message):
        with pytest.raises(BadGridError, match=f"^{re.escape(message)}$"):
            sweep.check_grid(key_column, keys)

    @settings(max_examples=300)
    @given(st.sampled_from(tuple(sweep.KEY_COLUMNS)),
           st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, -0.0, 1.5, -0.5, math.nan)) | unit_floats, min_size=1))
    def test_a_grid_is_checked_as_the_per_value_loops_check_it(self, key_column, keys):
        closed = sweep.KEY_COLUMNS[key_column]
        expected = next((f"{key_column} value {x!r} outside {'[0, 1]' if closed else '(0, 1)'}" for x in keys
                         if not (0.0 <= x <= 1.0 if closed else 0.0 < x < 1.0)), None)
        expected = expected or next((f"{key_column} values must be strictly increasing, got {a!r} before {b!r}"
                                     for a, b in zip(keys, keys[1:]) if not a < b), None)
        if expected is None:
            sweep.check_grid(key_column, tuple(keys))
        else:
            with pytest.raises(BadGridError, match=f"^{re.escape(expected)}$"):
                sweep.check_grid(key_column, tuple(keys))


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

    @settings(max_examples=200, deadline=None)
    @given(hard_sweeps(), st.sampled_from(((0.0, 1.0), (0.25, 0.75), (0.1, 0.97), (0.5, 0.5000001))))
    def test_the_run_walk_tiles_the_grid_with_the_oracle_counts(self, case, bounds):
        delta, pairs = case
        samples, keys = samples_from(pairs), make_grid(*bounds, delta)
        runs = list(samples.runs_at(keys))
        starts, ends, counts = zip(*runs)
        # the runs tile 0..G in order, each holds a key, and neighbouring runs differ in counts
        assert starts == (0, *ends[:-1]) and ends[-1] == len(keys)
        assert all(map(int.__lt__, starts, ends))
        assert all(map(tuple.__ne__, counts, counts[1:]))
        assert [run_counts for start, end, run_counts in runs for _ in range(start, end)] == [
            oracles.classify_counts(pairs, tau) for tau in keys
        ]
        # a sweep built from the walk is the series of the oracle's matrices
        curve = threshold_sweep(samples, *bounds, delta)
        oracle = tuple(ConfusionMatrix(*oracles.classify_counts(pairs, tau)) for tau in keys)
        expanded = MetricSeries("tau", keys, oracle)
        assert curve == expanded and hash(curve) == hash(expanded) and repr(curve) == repr(expanded)
        assert curve.runs == expanded.runs and curve.matrices == oracle
        twin = pickle.loads(pickle.dumps(curve))
        assert twin == expanded and twin.runs == expanded.runs and twin.matrices == expanded.matrices

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
        matrices = curve.matrices  # each read expands the runs to all 10,001 keys
        assert rows == tuple(csvio.row(matrices[start]) for start in starts)
        # neighbours share a run exactly when their matrices are equal
        run_of = [index for index, (start, end, _) in enumerate(curve.runs) for _ in range(start, end)]
        for i in range(len(curve.keys) - 1):
            assert (run_of[i] == run_of[i + 1]) == (matrices[i] == matrices[i + 1])

    @pytest.mark.parametrize("tau0, tau_n", [(0.0, 1.0), (0.25, 0.75)])
    def test_counts_once_per_run_of_taus(self, demo_samples, monkeypatch, tau0, tau_n):
        calls = 0

        def counted(*counts):
            nonlocal calls
            calls += 1
            return ConfusionMatrix(*counts)

        monkeypatch.setattr(confusion, "ConfusionMatrix", counted)
        curve = threshold_sweep(demo_samples, tau0, tau_n, delta=0.0001)
        monkeypatch.undo()
        assert len(curve.keys) == round((tau_n - tau0) / 0.0001) + 1
        assert calls <= len({*demo_samples.positive_scores, *demo_samples.negative_scores}) + 1
        for tau, matrix in zip(curve.keys, curve.matrices):
            assert matrix == classify_at_threshold(demo_samples, tau)

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

    def test_a_tie_between_runs_goes_to_the_smaller_tau(self):
        # (2, 4, 0, 2) from tau 0.2 and (1, 1, 1, 5) from tau 0.6 lie at one float distance, the nearest of the curve
        samples = ScoredSamples([0.3, 0.7], [0.1, 0.2, 0.4, 0.5, 0.6, 0.8])
        tied = [float_distance(ConfusionMatrix(*counts), "f1") for counts in [(2, 4, 0, 2), (1, 1, 1, 5)]]
        assert tied[0] == tied[1]
        best = optimal_threshold(threshold_sweep(samples, delta=0.05), "f1")
        assert (best.tau, best.distance) == (0.2, tied[0])

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
        assert_round_trips(threshold_sweep(demo_samples, delta=0.05), tmp_path / "curve.csv")

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

    # the keys callers write: case names, and the reprs of series keys
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(("C1", "C2", "C3", "C4"))
                                       | st.builds(repr, st.sampled_from((-0.0, 5e-324, 1e-05)) | unit_floats),
                                       max_size=4),
                              st.booleans()), max_size=6))
    @example([(["-0.0", "5e-324", "1e-05"], False), (["C1"], True)])
    def test_key_cells_are_written_as_csv_writer_writes_them(self, runs):
        matrices = (ConfusionMatrix(1, 2, 3, 4), ConfusionMatrix(0, 0, 5, 5))
        runs = [(keys, matrices[second]) for keys, second in runs]
        buffer = io.StringIO()
        with patch.object(csvio, "cells", wraps=csvio.cells) as formatted:
            csvio.write_rows(buffer, [(keys, csvio.row(matrix)) for keys, matrix in runs], key_column="case")
        assert formatted.call_count == len(runs)  # once per run, however many keys it has
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("case", *csvio.COUNT_COLUMNS, *METRIC_NAMES))
        for keys, matrix in runs:
            values = [*map(format_value, evaluate_all(matrix).as_dict().values())]
            writer.writerows((key, matrix.tp, matrix.fp, matrix.fn, matrix.tn, *values) for key in keys)
        assert buffer.getvalue() == expected.getvalue()

    def test_a_run_of_no_keys_writes_no_line_and_a_blank_key_one(self):
        values = csvio.row(ConfusionMatrix(1, 2, 3, 4))
        line = (
            "1,2,3,4,0.3333333333333333,0.25,0.6666666666666666,0.5714285714285714,0.2857142857142857,"
            "0.3902439024390244,-0.0890870806374748,0.4554564596812626,-0.08333333333333337,"
            "0.4583333333333333,-0.09523809523809534,0.45238095238095233\n"
        )
        header = ",".join(csvio.COLUMNS) + "\n"
        for runs, key_column, written in [
            ([((), values)], None, header),
            ([(("",), values)], None, header + line),
            ([((), values), (("",), values), ((), values)], None, header + line),
            ([((), values), (("C1",), values), ((), values), (("C2", "C3"), values)], "case",
             "case," + header + f"C1,{line}C2,{line}C3,{line}"),
        ]:
            buffer = io.StringIO()
            csvio.write_rows(buffer, runs, key_column)
            assert buffer.getvalue() == written

    # each layout the CLI writes: `eval`'s, with no key column, `cases`' and the three series'
    @pytest.mark.parametrize("key_column", [None, "case", *sweep.KEY_COLUMNS])
    @settings(max_examples=50)
    @given(st.lists(matrices(max_count=3) | matrices(max_count=10**100), min_size=1, max_size=4))
    def test_every_layout_re_parses_to_the_values_written(self, tmp_path_factory, key_column, runs):
        keys = [("",) if key_column is None else (f"C{i}", repr((i + 1) / 8)) for i in range(len(runs))]
        values = [csvio.row(matrix) for matrix in runs]
        path = tmp_path_factory.mktemp("layout") / "rows.csv"
        with open(path, "w", newline="") as fh:
            csvio.write_rows(fh, zip(keys, values), key_column)
        read_column, read_keys, rows = oracles.read_metrics_csv(path)
        assert read_column == key_column
        assert read_keys == (None if key_column is None else [key for run in keys for key in run])
        assert rows == [row for run, row in zip(keys, values) for _ in run]

    def test_read_back_curve_shares_points_like_the_sweep(self, demo_samples, tmp_path):
        curve = threshold_sweep(demo_samples)
        parsed = read_back(written(curve, tmp_path / "curve.csv"))
        assert parsed == curve
        assert len(curve.runs) == 84
        assert parsed.runs == curve.runs
        for y_name in ("f1", "p4"):
            assert optimal_threshold(parsed, y_name) == optimal_threshold(curve, y_name)

    def test_read_back_evaluates_each_run_once_per_pass(self, demo_samples, tmp_path, monkeypatch):
        curve = threshold_sweep(demo_samples, delta=0.0001)
        path = written(curve, tmp_path / "curve.csv")
        calls = 0
        closed_forms = csvio._closed_forms

        def counted(*counts):
            nonlocal calls
            calls += 1
            return closed_forms(*counts)

        monkeypatch.setattr(csvio, "_closed_forms", counted)
        assert read_back(path) == curve
        # once, where the constructor takes a run's row; comparing the matrices evaluates none
        assert calls == len(curve.runs) == 169

    def test_non_increasing_keys_rejected(self, tmp_path):
        path = written(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), tmp_path / "curve.csv")
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + rows[1] + rows[0] + rows[2])
        with pytest.raises(BadGridError, match="^tau values must be strictly increasing, got 0.5 before 0.0$"):
            read_back(path)

    def test_case_keyed_csv_rejected(self, tmp_path):
        path = tmp_path / "cases.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [(("C1",), csvio.row(ConfusionMatrix(1, 2, 3, 4)))], key_column="case")
        key_column, keys, rows = oracles.read_metrics_csv(path)
        assert (key_column, keys, rows) == ("case", ["C1"], [csvio.row(ConfusionMatrix(1, 2, 3, 4))])
        with pytest.raises(BadGridError, match="^unknown key column 'case'"):
            rebuilt(key_column, keys, rows)

    @pytest.mark.parametrize("keys, key_column", [
        ([""], None),
        (["0.25", "0.5"], "case"),
    ], ids=["no-key-column", "numeric-cases"])
    def test_a_csv_without_a_series_key_column_is_rejected(self, tmp_path, keys, key_column):
        # the `cases` and `eval --format csv` layouts are not series
        values = csvio.row(ConfusionMatrix(1, 2, 3, 4))
        path = tmp_path / "cases.csv"
        with open(path, "w") as fh:
            csvio.write_rows(fh, [(keys, values)], key_column=key_column)
        read_column, read_keys, rows = oracles.read_metrics_csv(path)
        assert (read_column, read_keys, rows) == (key_column, key_column and keys, [values] * len(keys))
        message = rf"^unknown key column {key_column!r}, expected one of \('tau', 'pos_fraction', 'tpr'\)$"
        with pytest.raises(BadGridError, match=message):
            rebuilt(key_column, map(float, read_keys or range(len(rows))), rows)

    def test_header_only_file_is_an_empty_grid(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(",".join(("tau", *csvio.COLUMNS)) + "\n")
        with pytest.raises(BadGridError, match="^empty grid$"):
            read_back(path)

    def test_undefined_round_trips_as_nan(self, tmp_path):
        path = tmp_path / "curve.csv"
        rows = assert_round_trips(threshold_sweep(SEPARABLE, 0.0, 1.0, 0.5), path)
        assert "nan" in path.read_text()
        assert cell(rows[-1], "mcc") is None  # tau = 1.0 row has undefined MCC

    def test_simulation_series_round_trips(self, tmp_path):
        assert_round_trips(tpr_sweep(1000, 0.3, 0.9), tmp_path / "tpr.csv")
