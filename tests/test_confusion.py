import math
import random

import pytest
from hypothesis import given, strategies as st

from p4metrics import (
    ConfusionMatrix,
    EmptyInputError,
    EmptyMatrixError,
    Label,
    NegativeCountError,
    SampleParseError,
    ScoredSamples,
    classify_at_threshold,
    from_counts,
    parse_scored_csv,
    read_scored_csv,
    swap_labels,
)
from conftest import DEMO_COUNTS_AT_HALF, matrices, samples_from, scored_pairs, unit_floats
import oracles


class TestFromCounts:
    def test_c1_population(self):
        c = from_counts(45, 995, 5, 8955)
        assert c.population == 10_000

    def test_totals(self):
        c = from_counts(1, 2, 3, 4)
        assert c.population == 10
        assert c.actual_positives == 4
        assert c.actual_negatives == 6
        assert c.predicted_positives == 3
        assert c.predicted_negatives == 7

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyMatrixError):
            from_counts(0, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeCountError):
            from_counts(1, -1, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            from_counts(1.5, 0, 0, 1)

    def test_immutable(self):
        c = from_counts(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            c.tp = 7


class TestSwapLabels:
    def test_c1_becomes_c2(self):
        c1 = ConfusionMatrix(45, 995, 5, 8955)
        assert swap_labels(c1) == ConfusionMatrix(8955, 5, 995, 45)

    def test_symmetric_fixed_point(self):
        c = ConfusionMatrix(7, 3, 3, 7)
        assert swap_labels(c) == c

    @given(matrices())
    def test_involution(self, c):
        assert swap_labels(swap_labels(c)) == c

    @given(matrices())
    def test_population_preserved(self, c):
        assert swap_labels(c).population == c.population


class TestLabel:
    def test_opposite_is_involution(self):
        for label in Label:
            assert label.opposite.opposite is label
            assert label.opposite is not label


class TestScoredSamples:
    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            samples_from([(1.5, True)])
        with pytest.raises(ValueError):
            samples_from([(-0.1, False)])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, -math.inf, math.inf])
    def test_bad_score_rejected_in_each_class(self, bad):
        with pytest.raises(ValueError, match="positives"):
            ScoredSamples((0.2, bad, 0.7), (0.5,))
        with pytest.raises(ValueError, match="negatives"):
            ScoredSamples((0.5,), (0.2, bad, 0.7))

    def test_no_samples_rejected(self):
        with pytest.raises(EmptyInputError):
            ScoredSamples((), ())

    def test_scores_come_back_sorted(self):
        samples = ScoredSamples([0.7, 0.1, 0.4, 0.1], (1.0, 0.0, 0.5))
        assert samples.positives == (0.1, 0.1, 0.4, 0.7)
        assert samples.negatives == (0.0, 0.5, 1.0)
        assert len(samples) == 7


class TestClassifyAtThreshold:
    def test_separable_pair(self):
        samples = samples_from([(0.9, True), (0.2, False)])
        assert classify_at_threshold(samples, 0.5) == ConfusionMatrix(1, 0, 0, 1)

    def test_tau_one_classifies_all_negative(self):
        samples = samples_from([(1.0, True), (0.3, False)])
        c = classify_at_threshold(samples, 1.0)
        assert c.predicted_positives == 0

    def test_tau_zero_is_strict(self):
        samples = samples_from([(0.0, True), (0.4, False)])
        c = classify_at_threshold(samples, 0.0)
        # the zero-score sample is not above the threshold
        assert c.predicted_positives == 1
        assert c.fn == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ScoredSamples((), ())

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            classify_at_threshold(samples_from([(0.5, True)]), 1.5)

    def test_demo_fixture_at_half(self, demo_samples):
        c = classify_at_threshold(demo_samples, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == DEMO_COUNTS_AT_HALF

    @given(scored_pairs(), unit_floats)
    def test_agrees_with_naive_oracle(self, pairs, tau):
        c = classify_at_threshold(samples_from(pairs), tau)
        assert (c.tp, c.fp, c.fn, c.tn) == oracles.classify_counts(pairs, tau)

    @given(scored_pairs(), unit_floats, unit_floats)
    def test_monotone_in_threshold(self, pairs, tau_a, tau_b):
        samples = samples_from(pairs)
        lo, hi = min(tau_a, tau_b), max(tau_a, tau_b)
        assert (
            classify_at_threshold(samples, lo).predicted_positives
            >= classify_at_threshold(samples, hi).predicted_positives
        )

    def test_randomized_oracle_agreement(self):
        # bulk seeded check, well past 10^4 individual sample decisions
        rng = random.Random(1234)
        trials = 0
        for _ in range(600):
            n = rng.randint(1, 40)
            pairs = [(round(rng.random(), 3), rng.choice((True, False))) for _ in range(n)]
            tau = rng.choice((0.0, 1.0, round(rng.random(), 3)))
            c = classify_at_threshold(samples_from(pairs), tau)
            assert (c.tp, c.fp, c.fn, c.tn) == oracles.classify_counts(pairs, tau)
            trials += n
        assert trials >= 10_000


class TestScoredCsv:
    def test_reads_demo_fixture(self, demo_samples, demo_pairs):
        assert len(demo_samples) == 200
        assert len(demo_samples.positives) == 60
        assert demo_samples == samples_from(demo_pairs)

    def test_label_aliases(self):
        text = ["score,label", "0.9,1", "0.1,0", "0.8,POSITIVE", "0.2,Negative"]
        samples = parse_scored_csv(text)
        assert samples == ScoredSamples((0.8, 0.9), (0.1, 0.2))

    def test_header_required(self):
        with pytest.raises(SampleParseError, match="header"):
            parse_scored_csv(["0.9,positive"])

    def test_unknown_label_is_line_numbered(self):
        with pytest.raises(SampleParseError, match="line 3"):
            parse_scored_csv(["score,label", "0.5,positive", "0.5,maybe"])

    def test_score_out_of_range_is_line_numbered(self):
        with pytest.raises(SampleParseError, match="line 2"):
            parse_scored_csv(["score,label", "1.2,positive"])

    def test_nan_score_rejected(self):
        with pytest.raises(SampleParseError):
            parse_scored_csv(["score,label", "nan,positive"])

    def test_bad_field_count(self):
        with pytest.raises(SampleParseError, match="2 fields"):
            parse_scored_csv(["score,label", "0.5,positive,extra"])

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            parse_scored_csv([])

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            parse_scored_csv(["score,label"])

    def test_oversized_field_is_line_numbered(self):
        with pytest.raises(SampleParseError, match="line 3"):
            parse_scored_csv(["score,label\n", "0.5,1\n", "0." + "1" * 200_000 + ",1\n"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_scored_csv(tmp_path / "nope.csv")
