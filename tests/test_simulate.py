import math
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from p4metrics import (
    ConfusionMatrix,
    DegeneratePopulationError,
    SimulationSpec,
    balance_sweep,
    confusion_from_rates,
    edge_cases,
    evaluate_all,
    swap_labels,
    tpr_sweep,
)
import golden
import oracles


class TestSimulationSpec:
    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            SimulationSpec(0, 0.5, 0.5, 0.5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="pos_fraction"):
            SimulationSpec(100, 1.5, 0.5, 0.5)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="tnr"):
            SimulationSpec(100, 0.5, 0.5, -0.1)


class TestConfusionFromRates:
    @pytest.mark.parametrize(
        "params, case",
        [
            ((10_000, 0.005, 0.9, 0.9), "C1"),
            ((10_000, 0.995, 0.9, 0.9), "C2"),
            ((10_000, 0.10, 0.05, 0.999), "C3"),
            ((10_000, 0.90, 0.999, 0.05), "C4"),
        ],
    )
    def test_reproduces_reference_matrices(self, params, case):
        matrix = confusion_from_rates(SimulationSpec(*params))
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == golden.CASES[case]

    def test_perfect_balanced(self):
        matrix = confusion_from_rates(SimulationSpec(10_000, 0.5, 1.0, 1.0))
        assert matrix == ConfusionMatrix(5000, 0, 0, 5000)

    def test_rounds_half_away_from_zero(self):
        # 0.25 * 10 = 2.5 actual positives; banker's rounding would give 2
        matrix = confusion_from_rates(SimulationSpec(10, 0.25, 1.0, 1.0))
        assert matrix.actual_positives == 3

    def test_rounds_the_decimal_fraction_not_the_float_product(self):
        # 0.57 * 1750 is 997.4999999999999 in float; 997.5 rounds up to 998
        assert confusion_from_rates(SimulationSpec(1750, 0.57, 0.5, 0.5)).actual_positives == 998
        series = balance_sweep(1750, 0.5, 0.5)
        assert series.keys[56] == 0.57 and series.matrices[56].actual_positives == 998
        # the exact binary value of 0.15 is below 0.15, yet 0.15 * 10 = 1.5 rounds to 2
        assert confusion_from_rates(SimulationSpec(10, 0.15, 1.0, 1.0)).actual_positives == 2

    def test_rounds_exactly_past_two_to_the_53(self):
        matrix = confusion_from_rates(SimulationSpec(2**53 + 1, 0.5, 1.0, 1.0))
        assert matrix.actual_positives == 2**52 + 1
        assert matrix.actual_negatives == 2**52

    def test_degenerate_population(self):
        with pytest.raises(DegeneratePopulationError):
            confusion_from_rates(SimulationSpec(10_000, 0.00004, 0.9, 0.9))

    @given(
        st.integers(min_value=10, max_value=10**5),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_totals_follow_rounded_fraction(self, population, fraction, tpr, tnr):
        spec = SimulationSpec(population, fraction, tpr, tnr)
        try:
            matrix = confusion_from_rates(spec)
        except DegeneratePopulationError:
            return
        # half up on the fraction's decimal value, not on a float product
        expected_positives = math.floor(Decimal(repr(fraction)) * population + Decimal("0.5"))
        assert matrix.actual_positives == expected_positives
        assert matrix.actual_negatives == population - expected_positives
        assert matrix.population == population


@pytest.fixture(scope="module")
def balance_series():
    return balance_sweep(10_000, 0.1, 0.1)


@pytest.fixture(scope="module")
def tpr_series():
    return tpr_sweep(10_000, 0.95, 0.8)


class TestBalanceSweep:
    @pytest.fixture
    def series(self, balance_series):
        return balance_series

    def test_default_grid(self, series):
        values = series.keys
        assert len(values) == 99
        assert values[0] == 0.01 and values[-1] == 0.99
        assert values == tuple(i / 100 for i in range(1, 100))
        assert series.key_column == "pos_fraction"

    def test_youden_is_insensitive_to_balance(self, series):
        for matrix in series.matrices:
            assert abs(evaluate_all(matrix).j_scaled.value - 0.1) <= 1e-12

    def test_mirror_fractions_swap_matrices(self, series):
        matrices = series.matrices
        assert matrices[::-1] == tuple(map(swap_labels, matrices))

    def test_symmetric_metrics_mirror_exactly(self, series):
        reports = [evaluate_all(matrix) for matrix in series.matrices]
        for name in ("p4", "mcc_scaled", "j_scaled", "mk_scaled"):
            for report, mirror in zip(reports, reversed(reports)):
                assert getattr(report, name) == getattr(mirror, name)

    def test_f1_is_not_mirror_symmetric(self, series):
        first, last = evaluate_all(series.matrices[0]), evaluate_all(series.matrices[-1])
        assert first.f1.value != last.f1.value


class TestTprSweep:
    @pytest.fixture
    def series(self, tpr_series):
        return tpr_series

    def test_default_grid(self, series):
        values = series.keys
        assert len(values) == 101
        assert values[0] == 0.0 and values[-1] == 1.0
        assert values == tuple(i / 100 for i in range(101))
        assert series.key_column == "tpr"

    def test_full_recall_endpoint(self, series):
        assert series.matrices[-1] == ConfusionMatrix(9500, 100, 0, 400)
        last = evaluate_all(series.matrices[-1])
        gap = last.f1.value - last.mcc_scaled.value
        assert abs(gap - 0.05) <= 0.006

    def test_zero_recall_endpoint(self, series):
        first = evaluate_all(series.matrices[0])
        assert first.rec.value == 0.0
        assert first.p4.value == 0.0

    def test_midpoint_matches_oracle(self, series):
        matrix = series.matrices[50]
        assert series.keys[50] == 0.5
        counts = (matrix.tp, matrix.fp, matrix.fn, matrix.tn)
        assert counts == (4750, 100, 4750, 400)
        mid = evaluate_all(matrix)
        assert abs(mid.p4.value - float(oracles.p4(*counts))) <= 1e-12
        assert abs(mid.mcc_scaled.value - float(oracles.scaled(oracles.mcc(*counts)))) <= 1e-12
        # the scaled-MCC/P4 gap sits near 0.3 through the first half
        assert abs((mid.mcc_scaled.value - mid.p4.value) - 0.3) <= 0.05


class TestEdgeCases:
    def test_exact_matrices(self):
        cases = edge_cases()
        assert [(name, (m.tp, m.fp, m.fn, m.tn)) for name, m in cases] == [
            (name, golden.CASES[name]) for name in ("C1", "C2", "C3", "C4")
        ]

    def test_swap_relations(self):
        cases = dict(edge_cases())
        assert cases["C2"] == swap_labels(cases["C1"])
        assert cases["C4"] == swap_labels(cases["C3"])
