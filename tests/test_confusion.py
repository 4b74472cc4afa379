import csv
import io
import marshal
import math
import os
import random
import re
import signal
import threading
import time
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

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
from conftest import (
    DEMO_COUNTS_AT_HALF, DEMO_CSV, LINE_ENDS, NON_UTF8_CSVS, NUMBER_SPELLINGS, QUOTINGS, matrices, samples_from,
    scored_csv_texts, scored_pairs, unit_floats,
)
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

    @pytest.mark.parametrize("taus", [(0.5, 0.25), (0.75, math.nan, 0.25)], ids=["descending", "nan"])
    def test_runs_at_needs_ascending_taus(self, demo_samples, taus):
        # a generator: the order is checked when iteration starts
        with pytest.raises(ValueError, match="^taus must ascend$"):
            list(demo_samples.runs_at(taus))
        assert list(demo_samples.runs_at((0.5, 0.5))) == [(0, 2, DEMO_COUNTS_AT_HALF)]

    def test_runs_at_keeps_taus_past_every_score_in_one_run(self, demo_samples):
        everything_negative = (0, 0, 60, 140)
        assert list(demo_samples.runs_at((1.0, 1.5, math.inf, math.inf))) == [(0, 4, everything_negative)]

    @given(scored_pairs(), st.data())
    def test_runs_at_walks_any_ascending_taus(self, pairs, data):
        # repeats, -0.0, values outside [0, 1], infinities and the scores themselves
        special = st.sampled_from([-0.0, 0.0, 1.0, -0.5, 1.5, -math.inf, math.inf, *(score for score, _ in pairs)])
        drawn = data.draw(st.lists(st.one_of(st.floats(allow_nan=False), special), max_size=30))
        taus = sorted(drawn + drawn[: data.draw(st.integers(0, len(drawn)))])
        runs = list(samples_from(pairs).runs_at(taus))
        # the runs tile the indices in order, each holds a tau, and neighbouring runs differ in counts
        assert [i for start, end, _ in runs for i in range(start, end)] == list(range(len(taus)))
        assert all(start < end for start, end, _ in runs)
        assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))
        assert [counts for start, end, counts in runs for _ in range(start, end)] == [
            oracles.classify_counts(pairs, tau) for tau in taus
        ]


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

    @pytest.mark.parametrize("tau", [1.5, math.nan, -0.5, math.inf])
    def test_tau_out_of_range(self, tau):
        with pytest.raises(ValueError, match=re.escape(f"tau must be in [0, 1], got {tau!r}")):
            classify_at_threshold(samples_from([(0.5, True)]), tau)

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


def outcome(read, source):
    """What `read(source)` gives: ("ok", samples), ("empty",), or ("error", line, message)."""
    try:
        return "ok", read(source)
    except SampleParseError as exc:
        return "error", exc.line, str(exc)
    except EmptyInputError:
        return ("empty",)


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

    def test_a_header_over_two_lines_is_one_record(self, tmp_path):
        # "score\n" strips to "score"; the rows after such a header are read record by record
        path = tmp_path / "scores.csv"
        path.write_bytes(b'"score\n",label\n0.5,1\n0.25,0\n')
        assert read_scored_csv(path) == ScoredSamples([0.5], [0.25])
        path.write_bytes(b'"score\n",label\n0.5,1\nbad,1\n')
        with pytest.raises(SampleParseError, match="^line 4: bad score 'bad'$"):
            read_scored_csv(path)

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

    def test_a_chunk_with_a_line_left_open_adds_nothing_to_the_tallies(self):
        # the second chunk's first two lines are whole, and its third leaves a quote open over the fourth
        chunk = ["0.25,0\n", "0.5,1\n", '0.75,"1\n', '"\n']
        tallies, rest, first_line = confusion._tally(iter([["score,label\n", "0.5,1\n"], chunk]), iter)
        assert tallies == {True: {0.5: 1}, False: {}, None: {}}
        assert (list(rest), first_line) == (chunk, 3)

    @settings(max_examples=300)
    @given(text=scored_csv_texts(), chunk_lines=st.integers(min_value=1, max_value=3),
           block_bytes=st.integers(min_value=1, max_value=8), bom=st.booleans())
    # a quote first seen in a chunk that repeats a line counted in the chunk before
    @example(text='score,label\n0.5,1\n0.5,1\n0.5,1\n"0.5",1\n', chunk_lines=2, block_bytes=12, bom=False)
    def test_counting_parse_agrees_with_row_by_row_oracle(self, scored_path, text, chunk_lines, block_bytes, bom):
        # the same text as lines of text and as a file, whose blocks are split
        # as `open(newline="")` splits lines, a CR or CRLF across blocks included
        data = b"\xef\xbb\xbf" * bom + text.encode()
        scored_path.write_bytes(data)
        limit = csv.field_size_limit(24)
        try:
            expected = oracles.parse_scored_rows(io.StringIO(text, newline=""))
            with patch.object(confusion, "_CHUNK_LINES", chunk_lines), patch.object(confusion, "_BLOCK_BYTES", block_bytes):
                parsed = outcome(parse_scored_csv, io.StringIO(text, newline=""))
                read = outcome(read_scored_csv, scored_path)
                chunks = list(confusion._byte_lines(io.BytesIO(data)))
        finally:
            csv.field_size_limit(limit)
        assert all(chunks[:-1])  # only the last, of the lines after the last line end, may be empty
        assert [line.decode() for chunk in chunks for line in chunk] == list(io.StringIO(text, newline=""))
        assert read == parsed
        if expected[0] == "error":
            _, line, message = expected
            assert parsed == ("error", line, f"line {line}: {message}")
            return
        pairs = expected[1]
        if not pairs:
            assert parsed == ("empty",)
            return
        samples = parsed[1]
        assert len(samples) == len(pairs)
        scores = sorted({score for score, _ in pairs})
        midpoints = [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        # one walk over every breakpoint: each score, each midpoint, 0 and 1
        taus = sorted({0.0, 1.0, *scores, *midpoints})
        runs = list(samples.runs_at(taus))
        assert [i for start, end, _ in runs for i in range(start, end)] == list(range(len(taus)))
        for start, end, counts in runs:
            assert all(counts == oracles.classify_counts(pairs, tau) for tau in taus[start:end])

    @pytest.mark.parametrize("read", [read_scored_csv, lambda path: parse_scored_csv(path.read_bytes().decode().splitlines())],
                             ids=["bytes", "text"])
    # with chunks of 2 lines, the counts are flushed after every chunk, so each line is new again
    @pytest.mark.parametrize("chunk_lines, checks", [(4, 3), (2, 12)], ids=["once-per-file", "once-per-flush"])
    @pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "crlf", "cr"])
    def test_each_distinct_line_is_checked_once_per_flush(self, tmp_path, read, chunk_lines, checks, end):
        # 12 rows with 3 distinct lines, one score spelled 2 ways
        path = tmp_path / "scores.csv"
        path.write_bytes(end.join(["score,label", *["0.5,1", "0.25,0", "0.50,1"] * 4, ""]).encode())
        # one-byte blocks, so that each chunk of a file holds one line, as in the text arm
        with (patch.object(confusion, "_CHUNK_LINES", chunk_lines), patch.object(confusion, "_BLOCK_BYTES", 1),
              patch.object(confusion, "_sample", wraps=confusion._sample) as check):
            samples = read(path)
        assert check.call_count == checks
        assert samples == ScoredSamples([0.5] * 8, [0.25] * 4)

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

    def test_a_line_over_many_blocks_is_joined_once(self, tmp_path):
        # 20 MB in one line over 1,221 blocks: copying the carried part into each
        # block's split instead took about 14 s on a 2-vCPU host, against 0.07 s
        path = tmp_path / "long.csv"
        path.write_bytes(b"score,label\n0.5,1\n0." + b"1" * 20_000_000 + b",1\n0.5,0\n")
        with patch.object(confusion, "_BLOCK_BYTES", 16_384):
            start = time.perf_counter()
            with pytest.raises(SampleParseError, match=r"^line 3: field larger than field limit \(131072\)$"):
                read_scored_csv(path)
            assert time.perf_counter() - start < 1

    def test_an_endless_line_is_named_before_memory_runs_out(self):
        class EndlessLine:
            """Two lines, then a line of zeros that never ends; more than 64 MiB read fails the test."""

            def __init__(self):
                self.head, self.given = b"score,label\n0.5,1\n", 0

            def read(self, size):
                self.given += size
                if self.given > 64 << 20:
                    pytest.fail("read 64 MiB of one line")
                data, self.head = (self.head or b"0" * size)[:size], self.head[size:]
                return data

        start = time.perf_counter()
        with pytest.raises(SampleParseError, match=r"^line 3: field larger than field limit \(131072\)$"):
            confusion._parse(confusion._byte_lines(EndlessLine()), confusion._decoded)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "crlf", "cr"])
    def test_a_line_with_no_end_is_not_held_whole(self, tmp_path, end):
        path = tmp_path / "endless.csv"
        path.write_bytes(f"score,label{end}0.5,1{end}0.".encode() + b"1" * (1 << 20))
        limit = csv.field_size_limit(24)
        tracemalloc.start()
        try:
            with pytest.raises(SampleParseError, match=r"^line 3: field larger than field limit \(24\)$"):
                read_scored_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            csv.field_size_limit(limit)
        assert peak < 256 << 10  # a block and its lines, not the 1 MiB line

    # a record is 2 fields of at most the limit's 4-byte characters, a comma between and a CRLF
    @pytest.mark.parametrize("limit, block_bytes", [(24, 16), (1000, 64), (131_072, 16_384)])
    def test_a_carried_line_is_cut_once_longer_than_a_record_can_be(self, limit, block_bytes):
        longest = 2 * (4 * limit + 1) + 1
        data = b"score,label\n" + b"0" * (4 * longest)
        fh = io.BytesIO(data)
        saved = csv.field_size_limit(limit)
        try:
            with patch.object(confusion, "_BLOCK_BYTES", block_bytes):
                lines = confusion._byte_lines(fh)
                assert next(lines) == [b"score,label\n"]
                [cut] = next(lines)  # the first part of line 2 given out, before the file's end
        finally:
            csv.field_size_limit(saved)
        assert longest < len(cut) <= longest + block_bytes and fh.tell() < len(data)

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

    # float() reads both, as 0.55 and 0.7, but neither is a decimal as written
    @pytest.mark.parametrize("score", ["0.5_5", "\u0660.\u0667"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["counted", "quoted"])
    def test_a_score_only_python_reads_is_rejected(self, score, quoted):
        row = f'"{score}",0' if quoted else f"{score},0"
        with pytest.raises(SampleParseError, match=f"^line 3: bad score '{score}'$"):
            parse_scored_csv(io.StringIO(f"score,label\n0.5,1\n{row}\n", newline=""))

    @pytest.mark.parametrize("spelling", NUMBER_SPELLINGS)
    def test_a_score_spelling_is_rejected_or_read_as_documented(self, tmp_path, spelling):
        spell, accepted = NUMBER_SPELLINGS[spelling]
        path = tmp_path / "scores.csv"
        path.write_text(f"score,label\n0.9,1\n{spell('0.45')},0\n", encoding="utf-8")
        if accepted:
            assert read_scored_csv(path) == ScoredSamples([0.9], [0.45])
        else:
            with pytest.raises(SampleParseError, match=f"^line 3: bad score {re.escape(repr(spell('0.45')))}$"):
                read_scored_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_scored_csv(tmp_path / "nope.csv")


def read_serially(path):
    """`outcome` of `read_scored_csv(path)` in one process."""
    with patch.object(confusion, "_cpus", lambda: 1):
        return outcome(read_scored_csv, path)


class WritesThenFails:
    """A `marshal` for a child that writes a well-formed, empty result and then fails."""

    @staticmethod
    def dump(value, file):
        file.write(marshal.dumps({}))
        raise OSError("failed after writing")


class WritesAllButTheLastByte:
    """A `marshal` for a child that writes its result less the last byte, then exits 0."""

    @staticmethod
    def dump(value, file):
        file.write(marshal.dumps(value)[:-1])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitRead:
    """A large regular file is tallied in byte ranges, the first in this process
    and each other in a forked child, each by the serial reader's loop."""

    @settings(max_examples=300)
    @given(text=scored_csv_texts(), split_bytes=st.integers(min_value=1, max_value=64),
           cpus=st.integers(min_value=2, max_value=4), block_bytes=st.integers(min_value=1, max_value=64),
           bom=st.booleans(), chunk_lines=st.sampled_from([2, 3, 65_536]))
    # a quote, then a bad row, after the first split point
    @example(text='score,label\n0.5,1\n0.25,0\n0.5,1\n0.25,0\n"0.5",1\n', split_bytes=16, cpus=2,
             block_bytes=4, bom=False, chunk_lines=65_536)
    @example(text="score,label\n0.5,1\n0.25,0\n0.5,1\n0.25,0\n0.5,maybe\n0.5,1\n", split_bytes=16, cpus=3,
             block_bytes=8, bom=False, chunk_lines=65_536)
    # a record over many lines whose first line ends this process's range, and one whose closing line starts a child's
    @example(text='score,label\n0.5,1\n0.5,"1\n"\n0.25,0\n0.75,1\n', split_bytes=8, cpus=2, block_bytes=8, bom=False,
             chunk_lines=65_536)
    @example(text='score,label\n0.5,1\n0.25,0\n0.5,"1\n\n"\n0.25,0\n0.75,1\n', split_bytes=8, cpus=3, block_bytes=4,
             bom=False, chunk_lines=65_536)
    # a second header line, and a line that begins with a BOM at the start of a range
    @example(text="score,label\n0.5,1\n0.25,0\nscore,label\n0.5,1\n", split_bytes=16, cpus=2, block_bytes=8, bom=False,
             chunk_lines=65_536)
    @example(text="score,label\n0.5,1\n0.25,0\n\ufeff0.5,1\n0.25,0\n", split_bytes=16, cpus=2, block_bytes=8, bom=False,
             chunk_lines=65_536)
    # blank lines, and a CRLF and lone CRs about the split points
    @example(text="score,label\n0.5,1\n\n0.25,0\n\n0.5,1\n0.75,0\n", split_bytes=8, cpus=4, block_bytes=8, bom=False,
             chunk_lines=65_536)
    @example(text="score,label\r\n0.5,1\r\n0.25,0\r0.5,1\r\n0.75,0\r0.25,0\r", split_bytes=8, cpus=4, block_bytes=8,
             bom=False, chunk_lines=65_536)
    # a header over many lines, whose last lines lie past the first split point
    @example(text='"score' + "\n" * 10 + '",label\n0.5,1\n0.25,0\n', split_bytes=4, cpus=4, block_bytes=2, bom=False,
             chunk_lines=65_536)
    @example(text="score,label\n0.5,1\n0.25,0\n0.5,1\n0.25,0\n", split_bytes=16, cpus=2, block_bytes=8, bom=True,
             chunk_lines=65_536)
    # no range reaches the cap of distinct lines, but the merged counts do
    @example(text="score,label\n0.5,1\n0.5,1\n0.25,0\n0.75,0\n0.25,0\n", split_bytes=16, cpus=2, block_bytes=8,
             bom=False, chunk_lines=3)
    def test_a_split_read_agrees_with_a_serial_read(self, scored_path, text, split_bytes, cpus, block_bytes, bom,
                                                    chunk_lines):
        scored_path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        limit = csv.field_size_limit(24)
        try:
            expected = oracles.parse_scored_rows(io.StringIO(text, newline=""))
            with (patch.object(confusion, "_SPLIT_BYTES", split_bytes), patch.object(confusion, "_BLOCK_BYTES", block_bytes),
                  patch.object(confusion, "_CHUNK_LINES", chunk_lines)):
                serial = read_serially(scored_path)
                with patch.object(confusion, "_cpus", lambda: cpus):
                    split = outcome(read_scored_csv, scored_path)
        finally:
            csv.field_size_limit(limit)
        assert split == serial
        if expected[0] == "error":
            _, line, message = expected
            assert split == ("error", line, f"line {line}: {message}")
        elif expected[1]:
            assert split == ("ok", samples_from(expected[1]))
        else:
            assert split == ("empty",)

    # a 16-byte file in 2 ranges reads the 4-byte block at byte 8 and the byte after it, byte 12
    @pytest.mark.parametrize("tail, bounds", [
        (b"x\nxxxxxx", [0, 10, 16]), (b"x\rxxxxxx", [0, 10, 16]), (b"xxx\r\nxxx", [0, 13, 16]),
        (b"xxxx\nxxx", [0, 16]), (b"xxxx\rxxx", [0, 16]), (b"xxxxxxxx", [0, 16]), (b"\r\nxxxxxx", [0, 10, 16]),
        (b"x\r\rxxxxx", [0, 10, 16]),
    ], ids=["lf", "lone-cr", "crlf-across-the-block-end", "lf-after-the-block", "cr-after-the-block", "no-line-end",
            "crlf-at-the-block-start", "cr-cr"])
    def test_a_range_is_cut_after_the_first_line_end_in_the_block(self, tmp_path, tail, bounds):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"x" * 8 + tail)
        with (patch.object(confusion, "_SPLIT_BYTES", 8), patch.object(confusion, "_BLOCK_BYTES", 4),
              patch.object(confusion, "_cpus", lambda: 2), open(path, "rb") as fh):
            assert confusion._split_bounds(fh) == bounds

    # a quoted header, as R's write.csv writes, is read as one record, and rows with quoted
    # fields, as R's write.csv quotes a text column or csv.QUOTE_ALL every field, are counted like any other
    @pytest.mark.parametrize("header, quote", [
        ("score,label", str), ('"score","label"', str), *(('"score","label"', quote) for quote in QUOTINGS.values()),
    ], ids=["header", "quoted-header", *QUOTINGS])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "crlf", "cr"])
    def test_each_distinct_line_of_a_split_file_is_checked_once(self, demo_pairs, tmp_path, header, bom, end, quote):
        path = tmp_path / "scores.csv"
        _, *rows = map(quote, DEMO_CSV.read_text().splitlines())
        path.write_bytes((bom + end.join([header, *rows * 3]) + end).encode())
        with (patch.object(confusion, "_SPLIT_BYTES", 1024), patch.object(confusion, "_cpus", lambda: 4),
              patch.object(confusion, "_byte_lines", wraps=confusion._byte_lines) as split,
              patch.object(confusion, "_sample", wraps=confusion._sample) as check):
            samples = read_scored_csv(path)
            with open(path, "rb") as fh:
                first_range = fh.read(confusion._split_bounds(fh)[1])
        _, *own_rows = first_range.decode().removeprefix(bom).splitlines()
        assert split.call_count == 1  # this process tallied its own range and did not read the file again
        assert check.call_count == len(set(own_rows))  # each child checks the lines of its own range
        assert samples == samples_from(demo_pairs * 3)
        assert_no_child_left()

    def test_a_split_file_flushed_many_times_is_not_read_again(self, demo_pairs, tmp_path):
        # 64-byte blocks and a flush at every 2 distinct lines: every range flushes its counts many times
        path = tmp_path / "scores.csv"
        _, *rows = DEMO_CSV.read_text().splitlines(keepends=True)
        path.write_text("".join(["score,label\n", *rows * 3]))
        with (patch.object(confusion, "_SPLIT_BYTES", 1024), patch.object(confusion, "_cpus", lambda: 4),
              patch.object(confusion, "_CHUNK_LINES", 2), patch.object(confusion, "_BLOCK_BYTES", 64)):
            with patch.object(confusion, "_byte_lines", wraps=confusion._byte_lines) as split:
                samples = read_scored_csv(path)
            assert split.call_count == 1
            assert ("ok", samples) == read_serially(path) == ("ok", samples_from(demo_pairs * 3))
        assert_no_child_left()

    # with 512-byte ranges the demo's 3,012 bytes are read in 3 ranges, so
    # lines 1 and 11 lie in this process's range and line 150 in the last child's
    @pytest.mark.parametrize("case", [
        "good", "bad-header", "bad-row-while-a-child-counts", "bad-row-in-a-child", "child-killed",
        "child-fails-after-writing", "child-result-cut-short", "too-many-distinct-lines", "interrupt", "fork-fails",
    ])
    def test_no_child_outlives_the_read(self, tmp_path, capfd, monkeypatch, case):
        rows = DEMO_CSV.read_text().splitlines(keepends=True)
        bad_line = {"bad-header": 1, "bad-row-while-a-child-counts": 11, "bad-row-in-a-child": 150}.get(case)
        if bad_line is not None:
            rows[bad_line - 1] = "score,lable\n" if bad_line == 1 else "0.5,maybe\n"
        path = tmp_path / "scores.csv"
        path.write_text("".join(rows), newline="")
        serial = read_serially(path)
        assert serial[0] == "ok" if bad_line is None else serial[:2] == ("error", bad_line)
        in_child = {
            "bad-row-while-a-child-counts": lambda: time.sleep(0.2),
            "child-killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
            "child-fails-after-writing": lambda: setattr(confusion, "marshal", WritesThenFails),
            "child-result-cut-short": lambda: setattr(confusion, "marshal", WritesAllButTheLastByte),
            "interrupt": lambda: time.sleep(60),
        }.get(case, lambda: None)
        parent, tally, fork, forks = os.getpid(), confusion._tally, os.fork, []

        def tallied(chunks, decoded):
            if os.getpid() != parent:
                in_child()
            elif case == "interrupt":
                raise KeyboardInterrupt
            return tally(chunks, decoded)

        def forked():
            forks.append(None)
            if case == "fork-fails" and len(forks) == 2:
                raise BlockingIOError("no process to spare")
            return fork()

        monkeypatch.setattr(confusion, "_SPLIT_BYTES", 512)
        monkeypatch.setattr(confusion, "_cpus", lambda: 3)
        monkeypatch.setattr(confusion, "_tally", tallied)
        monkeypatch.setattr(os, "fork", forked)
        if case == "too-many-distinct-lines":  # each range flushes its counts, as the serial reader does
            monkeypatch.setattr(confusion, "_CHUNK_LINES", 40)
        start = time.perf_counter()
        if case == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                read_scored_csv(path)
        else:
            assert outcome(read_scored_csv, path) == serial
        assert time.perf_counter() - start < 10  # no sleeping child was waited for
        assert len(forks) == 2
        assert_no_child_left()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("case", ["small-file", "one-cpu", "second-thread"])
    def test_no_fork_where_it_cannot_pay_or_is_unsafe(self, demo_samples, monkeypatch, case):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setattr(confusion, "_SPLIT_BYTES", DEMO_CSV.stat().st_size // 2 + 1 if case == "small-file" else 256)
        monkeypatch.setattr(confusion, "_cpus", lambda: 1 if case == "one-cpu" else 4)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        if case == "second-thread":
            thread.start()
        try:
            assert read_scored_csv(DEMO_CSV) == demo_samples
        finally:
            done.set()
            if case == "second-thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
