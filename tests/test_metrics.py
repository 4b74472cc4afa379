import math

import pytest
from hypothesis import example, given, settings, strategies as st

from p4metrics import (
    ConfusionMatrix,
    MetricValue,
    RangeMismatchError,
    SIGNED_RANGE,
    UNIT_RANGE,
    basic_rates,
    evaluate_all,
    f1,
    markedness,
    mcc,
    p4,
    scale_to_unit,
    swap_labels,
    youden,
)
from p4metrics.metrics import METRIC_NAMES
from conftest import matrices
import golden
import oracles


def rate_values(c):
    return [v.value for v in basic_rates(c) if v.is_defined]


class TestMetricValue:
    def test_rejects_value_outside_range(self):
        with pytest.raises(ValueError):
            MetricValue(1.1, UNIT_RANGE)
        with pytest.raises(ValueError):
            MetricValue(-1.5, SIGNED_RANGE)

    def test_tolerates_float_roundoff(self):
        MetricValue(1.0 + 1e-13, UNIT_RANGE)

    def test_as_float_nan_when_undefined(self):
        assert math.isnan(MetricValue(None).as_float())
        assert MetricValue(0.25).as_float() == 0.25


class TestBasicRates:
    def test_perfect_classifier(self):
        rates = basic_rates(ConfusionMatrix(5, 0, 0, 5))
        assert all(v.value == 1.0 for v in rates)

    def test_c1_table(self):
        rates = basic_rates(ConfusionMatrix(*golden.CASES["C1"]))
        for name, value in zip(("prec", "rec", "spec", "npv"), rates):
            assert golden.matches_4dp(value.value, golden.RATES["C1"][name])

    def test_c3_table(self):
        rates = basic_rates(ConfusionMatrix(*golden.CASES["C3"]))
        for name, value in zip(("prec", "rec", "spec", "npv"), rates):
            assert golden.matches_4dp(value.value, golden.RATES["C3"][name])

    def test_undefined_on_zero_denominator(self):
        rates = basic_rates(ConfusionMatrix(0, 0, 3, 4))
        assert not rates.prec.is_defined  # no predicted positives
        assert rates.rec.value == 0.0


class TestF1:
    def test_c1_and_c2(self):
        c1 = ConfusionMatrix(*golden.CASES["C1"])
        assert golden.matches_4dp(f1(c1).value, 0.0826)
        assert golden.matches_4dp(f1(swap_labels(c1)).value, 0.9471)

    def test_perfect(self):
        assert f1(ConfusionMatrix(5, 0, 0, 5)).value == 1.0

    def test_zero_when_no_true_positives(self):
        assert f1(ConfusionMatrix(0, 2, 3, 4)).value == 0.0

    def test_undefined_only_for_pure_tn(self):
        assert not f1(ConfusionMatrix(0, 0, 0, 5)).is_defined


class TestP4:
    def test_c1_and_c3(self):
        assert golden.matches_4dp(p4(ConfusionMatrix(*golden.CASES["C1"])).value, 0.1519)
        assert golden.matches_4dp(p4(ConfusionMatrix(*golden.CASES["C3"])).value, 0.1718)

    def test_perfect(self):
        assert p4(ConfusionMatrix(50, 0, 0, 50)).value == 1.0

    def test_undefined_cases(self):
        # tp = tn = 0 with errors present, and a one-class perfect column
        assert not p4(ConfusionMatrix(0, 2, 3, 0)).is_defined
        assert not p4(ConfusionMatrix(5, 0, 0, 0)).is_defined

    def test_zero_when_one_true_corner_missing(self):
        assert p4(ConfusionMatrix(0, 2, 3, 4)).value == 0.0


class TestYoudenMarkedness:
    def test_perfect(self):
        c = ConfusionMatrix(5, 0, 0, 5)
        assert youden(c).value == 1.0
        assert markedness(c).value == 1.0

    def test_c1_scaled(self):
        c1 = ConfusionMatrix(*golden.CASES["C1"])
        assert golden.matches_4dp(scale_to_unit(youden(c1)).value, 0.9000)
        assert golden.matches_4dp(scale_to_unit(markedness(c1)).value, 0.5214)

    def test_undefined_propagates(self):
        c = ConfusionMatrix(0, 0, 3, 4)  # nothing predicted positive
        assert youden(c).is_defined  # rec = 0 and spec = 1 both exist
        assert not markedness(c).is_defined  # prec is 0/0


class TestMcc:
    def test_uninformative(self):
        assert mcc(ConfusionMatrix(1, 1, 1, 1)).value == 0.0

    def test_c1_and_c3_scaled(self):
        assert golden.matches_4dp(
            scale_to_unit(mcc(ConfusionMatrix(*golden.CASES["C1"]))).value, 0.5924
        )
        assert golden.matches_4dp(
            scale_to_unit(mcc(ConfusionMatrix(*golden.CASES["C3"]))).value, 0.5960
        )

    def test_undefined_when_marginal_empty(self):
        assert not mcc(ConfusionMatrix(0, 0, 3, 4)).is_defined

    def test_large_counts_stay_finite(self):
        c = ConfusionMatrix(10**6, 10**6 - 1, 10**6 + 1, 10**6)
        value = mcc(c).value
        assert -1.0 <= value <= 1.0

    # past marginals of about 1e77 the radicand leaves the float range
    @settings(max_examples=300)
    @given(matrices(max_count=10**100))
    @example(ConfusionMatrix(10**80, 1, 1, 10**80))
    @example(ConfusionMatrix(10**100, 0, 10**100, 1))
    def test_huge_counts_match_the_decimal_oracle(self, c):
        want = oracles.mcc(c.tp, c.fp, c.fn, c.tn)
        value = mcc(c).value
        assert (value is None) == (want is None)
        if want is not None:
            assert abs(value - float(want)) <= 1e-15


class TestScaleToUnit:
    def test_endpoints(self):
        assert scale_to_unit(MetricValue(1.0, SIGNED_RANGE)).value == 1.0
        assert scale_to_unit(MetricValue(-1.0, SIGNED_RANGE)).value == 0.0

    def test_undefined_propagates(self):
        assert not scale_to_unit(MetricValue(None, SIGNED_RANGE)).is_defined

    def test_range_mismatch(self):
        with pytest.raises(RangeMismatchError):
            scale_to_unit(MetricValue(0.5, UNIT_RANGE))


class TestEvaluateAll:
    @pytest.mark.parametrize("case", ["C1", "C2", "C3", "C4"])
    def test_full_tables(self, case):
        report = evaluate_all(ConfusionMatrix(*golden.CASES[case]))
        for name, printed in golden.RATES[case].items():
            assert golden.matches_4dp(getattr(report, name).value, printed), name
        for name, printed in golden.COMPOSITES[case].items():
            assert golden.matches_4dp(getattr(report, name).value, printed), name

    def test_swap_symmetric_matrix(self):
        report = evaluate_all(ConfusionMatrix(7, 3, 3, 7))
        assert report.prec.value == report.npv.value
        assert report.rec.value == report.spec.value
        assert report.f1.value == report.p4.value == 0.7

    @settings(max_examples=500)
    @given(st.one_of(matrices(max_count=3), matrices()))
    def test_every_field_matches_the_decimal_oracle(self, c):
        # counts of 0..3 reach every zero-denominator pattern
        report = evaluate_all(c)
        for name, want in zip(METRIC_NAMES, oracles.report(c.tp, c.fp, c.fn, c.tn), strict=True):
            value = getattr(report, name)
            assert value.is_defined == (want is not None), name
            if want is not None:
                assert abs(value.value - float(want)) <= 1e-12, name
        singles = {
            **basic_rates(c)._asdict(),
            "f1": f1(c),
            "p4": p4(c),
            "mcc": mcc(c),
            "mcc_scaled": scale_to_unit(mcc(c)),
            "j": youden(c),
            "j_scaled": scale_to_unit(youden(c)),
            "mk": markedness(c),
            "mk_scaled": scale_to_unit(markedness(c)),
        }
        assert singles == report.as_dict()

    # counts past the float range, where MCC's radicand overflows a float and every other field's
    # integer closed form still rounds once
    @pytest.mark.parametrize("name", METRIC_NAMES)
    @settings(max_examples=100)
    @given(c=matrices(max_count=10**100))
    @example(c=ConfusionMatrix(10**80, 1, 1, 10**80))
    @example(c=ConfusionMatrix(10**100, 0, 10**100, 1))
    def test_each_field_matches_the_decimal_oracle_at_huge_counts(self, name, c):
        want = oracles.report(c.tp, c.fp, c.fn, c.tn)[METRIC_NAMES.index(name)]
        value = getattr(evaluate_all(c), name)
        assert value.is_defined == (want is not None)
        if want is not None:
            assert abs(value.value - float(want)) <= 1e-15

    # every metric is a ratio of forms of one degree in the counts, so scaling them keeps it, up
    # to MCC's rounding of its radicand to a float and its square root; 10**77 and up overflow it
    @pytest.mark.parametrize("exponent", [1, 38, 76, 77, 100])
    @settings(max_examples=100)
    @given(c=matrices())
    def test_scaling_the_counts_keeps_every_field(self, exponent, c):
        scale = 10**exponent
        scaled = evaluate_all(ConfusionMatrix(c.tp * scale, c.fp * scale, c.fn * scale, c.tn * scale))
        for name, value in evaluate_all(c).as_dict().items():
            got = getattr(scaled, name)
            assert got.is_defined == value.is_defined, name
            if value.is_defined:
                assert abs(got.value - value.value) <= 1e-15, name

    @given(matrices())
    def test_scaled_fields_match_raw(self, c):
        report = evaluate_all(c)
        for raw, scaled in ((report.mcc, report.mcc_scaled), (report.j, report.j_scaled), (report.mk, report.mk_scaled)):
            if raw.is_defined:
                assert scaled.value == (raw.value + 1) / 2
            else:
                assert not scaled.is_defined


class TestSwapSymmetry:
    @given(matrices())
    def test_symmetric_metrics_invariant(self, c):
        s = swap_labels(c)
        for metric in (p4, mcc, youden, markedness):
            a, b = metric(c), metric(s)
            assert a.is_defined == b.is_defined
            if a.is_defined:
                assert a.value == b.value

    @given(matrices())
    def test_rates_exchange(self, c):
        ours, theirs = basic_rates(c), basic_rates(swap_labels(c))
        assert ours.prec == theirs.npv
        assert ours.rec == theirs.spec

    def test_f1_is_asymmetric(self):
        c1 = ConfusionMatrix(45, 995, 5, 8955)
        assert f1(c1).value != f1(swap_labels(c1)).value


class TestHarmonicEquivalence:
    @given(matrices())
    def test_p4_matches_harmonic_mean(self, c):
        rates = basic_rates(c)
        if all(v.is_defined and v.value > 0 for v in rates):
            harmonic = 4 / sum(1 / v.value for v in rates)
            assert abs(p4(c).value - harmonic) <= 1e-12

    @given(matrices())
    def test_f1_matches_harmonic_mean(self, c):
        rates = basic_rates(c)
        if rates.prec.is_defined and rates.rec.is_defined and rates.prec.value > 0 and rates.rec.value > 0:
            harmonic = 2 / (1 / rates.prec.value + 1 / rates.rec.value)
            assert abs(f1(c).value - harmonic) <= 1e-12

    def test_matches_decimal_oracle_on_edge_cases(self):
        for counts in golden.CASES.values():
            c = ConfusionMatrix(*counts)
            assert abs(p4(c).value - float(oracles.p4(*counts))) <= 1e-12
            assert abs(mcc(c).value - float(oracles.mcc(*counts))) <= 1e-12


class TestBounds:
    @given(matrices())
    def test_p4_bounded_by_worst_rate(self, c):
        value = p4(c)
        rates = rate_values(c)
        if value.is_defined and len(rates) == 4:
            assert value.value <= 4 * min(rates) + 1e-12

    @given(matrices())
    def test_p4_sandwiched_by_rates(self, c):
        value = p4(c)
        rates = rate_values(c)
        if value.is_defined and len(rates) == 4:
            assert min(rates) - 1e-12 <= value.value <= max(rates) + 1e-12

    @given(matrices())
    def test_every_defined_value_in_declared_range(self, c):
        for value in evaluate_all(c).as_dict().values():
            if value.is_defined:
                lo, hi = value.range
                assert lo - 1e-12 <= value.value <= hi + 1e-12


class TestMonotonicity:
    def test_directions_on_small_grid(self):
        # acceptance covers the [1,12]^4 grid; keep a cheap sanity slice here
        for tp in range(1, 5):
            for fp in range(1, 5):
                for fn in range(1, 5):
                    for tn in range(1, 5):
                        base = p4(ConfusionMatrix(tp, fp, fn, tn)).value
                        assert p4(ConfusionMatrix(tp + 1, fp, fn, tn)).value > base
                        assert p4(ConfusionMatrix(tp, fp, fn, tn + 1)).value > base
                        assert p4(ConfusionMatrix(tp, fp + 1, fn, tn)).value < base
                        assert p4(ConfusionMatrix(tp, fp, fn + 1, tn)).value < base
