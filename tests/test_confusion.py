import csv
import io
import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from p4metrics import (
    ConfusionMatrix,
    EmptyInputError,
    EmptyMatrixError,
    NegativeCountError,
    SampleParseError,
    ScoredSamples,
    classify_at_threshold,
    parse_scored_csv,
    read_scored_csv,
    swap_labels,
)
from p4metrics import confusion
from conftest import DEMO_COUNTS_AT_HALF, DEMO_CSV, NON_UTF8_CSVS, matrices, samples_from, scored_pairs, unit_floats
import oracles


class TestFromCounts:
    def test_c1_population(self):
        c = ConfusionMatrix(45, 995, 5, 8955)
        assert c.population == 10_000

    def test_totals(self):
        c = ConfusionMatrix(1, 2, 3, 4)
        assert c.population == 10
        assert c.actual_positives == 4
        assert c.actual_negatives == 6
        assert c.predicted_positives == 3
        assert c.predicted_negatives == 7

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyMatrixError):
            ConfusionMatrix(0, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(NegativeCountError):
            ConfusionMatrix(1, -1, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            ConfusionMatrix(1.5, 0, 0, 1)

    def test_immutable(self):
        c = ConfusionMatrix(1, 2, 3, 4)
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
        with pytest.raises(ValueError, match="negatives"):
            ScoredSamples.from_tallies({0.5: 1}, {0.2: 1, bad: 3})

    def test_no_samples_rejected(self):
        with pytest.raises(EmptyInputError):
            ScoredSamples((), ())

    def test_from_tallies_equals_the_scores_it_counts(self):
        samples = ScoredSamples.from_tallies({0.4: 1, 0.1: 2}, {0.5: 1})
        assert samples == ScoredSamples([0.1, 0.4, 0.1], [0.5])
        assert samples.positive_cumulative == (0, 2, 3)
        assert len(samples) == 4

    @pytest.mark.parametrize("count", [0, -1])
    def test_from_tallies_rejects_a_count_below_one(self, count):
        with pytest.raises(ValueError, match="positives"):
            ScoredSamples.from_tallies({0.5: count}, {0.2: 1})

    def test_scores_come_back_sorted(self):
        samples = ScoredSamples([0.7, 0.1, 0.4, 0.1], (1.0, 0.0, 0.5))
        # the sorted positives (0.1, 0.1, 0.4, 0.7) as a staircase
        assert samples.positive_scores == (0.1, 0.4, 0.7)
        assert samples.positive_cumulative == (0, 2, 3, 4)
        assert samples.negative_scores == (0.0, 0.5, 1.0)
        assert samples.negative_cumulative == (0, 1, 2, 3)
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


# rows for generated scored CSV text: duplicates, quoted fields, quoted line
# ends, blank lines and, in BAD_ROWS, one row of each kind of error (the last
# is over a field size limit of 24)
GOOD_ROWS = (
    "0.5,1", "0.50,positive", "0,0", "1,NEGATIVE", ".25, 1 ", " 1e-1,0", "",
    '"0.5",1', '0.25,"0"', '"0.75","positive"', '0.75,"1\n"', '"1","0\r\n"', '0.5,"1\r"',
)
BAD_ROWS = (
    "bad,1", "1.5,0", "-0.1,1", "nan,1", "0.5,maybe", "0.5,1,extra", "0.5", " ",
    '"0.5,1"', '0.5,"2\n"', "0." + "1" * 30 + ",1",
)
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def scored_csv_texts(draw):
    """Scored CSV text: up to 16 rows repeating a few good rows, then, in
    some texts, up to 8 that also repeat a few bad rows; each row drawn with
    its own line end."""

    def rows(pool, max_size):
        ended_row = st.tuples(st.sampled_from(pool), st.sampled_from(LINE_ENDS))
        palette = draw(st.lists(ended_row, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(palette), max_size=max_size))

    lines = rows(GOOD_ROWS, 16)
    if draw(st.booleans()):
        lines += rows(GOOD_ROWS + BAD_ROWS, 8)
    text = draw(st.sampled_from(["score,label", '"score","label"'])) + "\n"
    text += "".join(row + end for row, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]  # no line end after the last row
    return text


class TestScoredCsv:
    def test_reads_demo_fixture(self, demo_samples, demo_pairs):
        assert len(demo_samples) == 200
        assert demo_samples.positive_cumulative[-1] == 60
        assert demo_samples == samples_from(demo_pairs)

    def test_a_byte_order_mark_is_skipped(self, demo_samples, tmp_path):
        # as in an Excel "CSV UTF-8" file
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + DEMO_CSV.read_bytes())
        assert read_scored_csv(path) == demo_samples

    def test_label_aliases(self):
        text = ["score,label", "0.9,1", "0.1,0", "0.8,POSITIVE", "0.2,Negative"]
        samples = parse_scored_csv(text)
        assert samples == ScoredSamples((0.8, 0.9), (0.1, 0.2))
        assert (samples.positive_scores, samples.positive_cumulative) == ((0.8, 0.9), (0, 1, 2))
        assert (samples.negative_scores, samples.negative_cumulative) == ((0.1, 0.2), (0, 1, 2))

    def test_equal_scores_are_one_step(self):
        samples = parse_scored_csv(["score,label", "0.5,1", "0.50,positive", "0.5,0", "5e-1,0"])
        assert (samples.positive_scores, samples.positive_cumulative) == ((0.5,), (0, 2))
        assert (samples.negative_scores, samples.negative_cumulative) == ((0.5,), (0, 2))

    def test_quoted_newline_keeps_physical_line_numbers(self):
        # the score "0.5\n" is quoted across lines 2-3, so the bad row is on line 4
        lines = io.StringIO('score,label\n"0.5\n",1\nbad,1\n', newline="")
        with pytest.raises(SampleParseError, match="line 4: bad score 'bad'"):
            parse_scored_csv(lines)

    def test_a_bad_record_is_named_by_the_line_it_starts_on(self):
        # the label "maybe\n" is quoted across lines 2-3
        lines = io.StringIO('score,label\n0.5,"maybe\n"\n0.4,1\n', newline="")
        with pytest.raises(SampleParseError, match=r"^line 2: unknown label 'maybe\\n'$"):
            parse_scored_csv(lines)

    @pytest.mark.parametrize("first_row", ["0.5,1", '"0.5",1'])
    def test_a_bad_row_before_a_csv_error_is_reported_first(self, first_row):
        oversized = "0." + "1" * 200_000 + ",1"
        lines = io.StringIO(f"score,label\n{first_row}\nbad,1\n{oversized}\n", newline="")
        with pytest.raises(SampleParseError, match="line 3: bad score 'bad'"):
            parse_scored_csv(lines)

    @settings(max_examples=300)
    @given(scored_csv_texts(), st.integers(min_value=1, max_value=3))
    def test_counting_parse_agrees_with_row_by_row_oracle(self, text, chunk_lines):
        limit = csv.field_size_limit(24)
        try:
            expected = oracles.parse_scored_rows(io.StringIO(text, newline=""))
            with patch.object(confusion, "_CHUNK_LINES", chunk_lines):
                if expected[0] == "error":
                    _, line, message = expected
                    with pytest.raises(SampleParseError) as info:
                        parse_scored_csv(io.StringIO(text, newline=""))
                    assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")
                    return
                pairs = expected[1]
                if not pairs:
                    with pytest.raises(EmptyInputError):
                        parse_scored_csv(io.StringIO(text, newline=""))
                    return
                samples = parse_scored_csv(io.StringIO(text, newline=""))
        finally:
            csv.field_size_limit(limit)
        assert len(samples) == len(pairs)
        scores = sorted({score for score, _ in pairs})
        midpoints = [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        for tau in [0.0, 1.0, *scores, *midpoints]:
            assert samples.matrix_at(tau) == ConfusionMatrix(*oracles.classify_counts(pairs, tau))

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

    @pytest.mark.parametrize("header", ["score," + "x" * 200_000, '"score\n' + "x" * 200_000 + '",label'],
                             ids=["one-line", "two-line"])
    def test_an_oversized_header_is_named_by_line_1(self, header):
        lines = io.StringIO(header + "\n0.5,1\n", newline="")
        with pytest.raises(SampleParseError, match=r"^line 1: field larger than field limit"):
            parse_scored_csv(lines)

    @pytest.mark.parametrize("case", NON_UTF8_CSVS)
    def test_a_byte_that_is_not_utf8_is_line_numbered(self, tmp_path, case):
        data, line, message = NON_UTF8_CSVS[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(SampleParseError) as info:
            read_scored_csv(path)
        assert info.value.line == line
        assert str(info.value).startswith(message)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_scored_csv(tmp_path / "nope.csv")
