"""Confusion-matrix construction, label swapping, and thresholded classification.

Counts are exact non-negative integers throughout; nothing here ever touches
floating point except the sample scores themselves.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyInputError, EmptyMatrixError, NegativeCountError, SampleParseError


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """2x2 contingency table of a binary classifier against a population.

    tp/fp/fn/tn are validated at construction: integral, non-negative, and
    not all zero (an empty population is unconstructible).
    """

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise NegativeCountError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        if self.tp + self.fp + self.fn + self.tn == 0:
            raise EmptyMatrixError("all four counts are zero")

    @property
    def actual_positives(self) -> int:
        return self.tp + self.fn

    @property
    def actual_negatives(self) -> int:
        return self.fp + self.tn

    @property
    def predicted_positives(self) -> int:
        return self.tp + self.fp

    @property
    def predicted_negatives(self) -> int:
        return self.fn + self.tn

    @property
    def population(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def swap_labels(c: ConfusionMatrix) -> ConfusionMatrix:
    """Matrix after renaming positives to negatives and vice versa.

    Exchanges tp with tn and fp with fn; the population size is preserved
    and applying the swap twice returns the original matrix.
    """
    return ConfusionMatrix(tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp)


@dataclass(frozen=True, init=False)
class ScoredSamples:
    """Classifier scores in [0, 1] of the actual positives and negatives, kept
    per class as a staircase: the distinct scores in ascending order, and the
    cumulative number of samples scoring at or below each one, after a leading
    0.  Memory is O(distinct scores), not O(n).

    `ScoredSamples(positives, negatives)` takes each class's scores and
    `ScoredSamples.from_tallies` each class's score -> count mapping; equal
    floats (0.5 and 0.50) are one step.  A score outside [0, 1] or NaN raises
    ValueError, and no samples at all EmptyInputError.
    """

    positive_scores: tuple[float, ...]
    positive_cumulative: tuple[int, ...]
    negative_scores: tuple[float, ...]
    negative_cumulative: tuple[int, ...]

    def __init__(self, positives: Iterable[float], negatives: Iterable[float]):
        self._build(Counter(positives), Counter(negatives))

    @classmethod
    def from_tallies(cls, positives: Mapping[float, int], negatives: Mapping[float, int]) -> "ScoredSamples":
        """Build from each class's tally, which maps each distinct score to
        the number of samples, at least 1, that have it."""
        samples = cls.__new__(cls)
        samples._build(positives, negatives)
        return samples

    def _build(self, positives: Mapping[float, int], negatives: Mapping[float, int]) -> None:
        for name, tally in (("positive", positives), ("negative", negatives)):
            scores = sorted(tally)
            # a NaN may sort anywhere, but it makes the sum NaN
            if scores and (math.isnan(sum(scores)) or scores[0] < 0.0 or scores[-1] > 1.0):
                bad = next(score for score in scores if not 0.0 <= score <= 1.0)
                raise ValueError(f"{name}s score must be in [0, 1], got {bad!r}")
            if scores and min(tally.values()) < 1:
                raise ValueError(f"{name}s score counts must be positive, got {min(tally.values())!r}")
            object.__setattr__(self, f"{name}_scores", tuple(scores))
            if sum(tally.values()) == len(scores):
                cumulative = range(len(scores) + 1)  # every count is 1
            else:
                cumulative = accumulate(map(tally.__getitem__, scores), initial=0)
            object.__setattr__(self, f"{name}_cumulative", tuple(cumulative))
        if len(self) == 0:
            raise EmptyInputError("no samples")

    def __len__(self) -> int:
        return self.positive_cumulative[-1] + self.negative_cumulative[-1]

    def matrix_at(self, tau: float) -> ConfusionMatrix:
        """The matrix of calling a sample positive iff score > tau, in O(log D)
        for D distinct scores: `bisect_right` finds the step of the scores
        <= tau, and its cumulative count is the samples called negative."""
        fn = self.positive_cumulative[bisect_right(self.positive_scores, tau)]
        tn = self.negative_cumulative[bisect_right(self.negative_scores, tau)]
        return ConfusionMatrix(self.positive_cumulative[-1] - fn, self.negative_cumulative[-1] - tn, fn, tn)


def classify_at_threshold(samples: ScoredSamples, tau: float) -> ConfusionMatrix:
    """`samples.matrix_at(tau)` for a tau checked to lie in [0, 1], in O(log n).

    The comparison is strict, so tau=0 marks every sample with a nonzero
    score positive and tau=1 classifies everything negative.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")
    return samples.matrix_at(tau)


# lines a scored CSV is read and counted by at a time
_CHUNK_LINES = 65_536
# each class's score -> count tally, keyed by is_positive
_Tallies = dict[bool, dict[float, int]]

_LABEL_ALIASES = {"1": True, "positive": True, "0": False, "negative": False}


def parse_label(text: str) -> bool:
    """Whether `1`/`0`/`positive`/`negative` (case-insensitive, surrounding
    whitespace ignored) names the positive class; anything else raises
    ValueError."""
    is_positive = _LABEL_ALIASES.get(text.strip().lower())
    if is_positive is None:
        raise ValueError(f"unknown label {text!r}")
    return is_positive


def read_scored_csv(path: str | Path) -> ScoredSamples:
    """Read a `score,label` CSV of scored samples, strictly.

    The header is required.  Scores must be decimals in [0, 1] and labels one
    of 1/0/positive/negative (case-insensitive); anything else, a byte that
    is not UTF-8 or a field over the csv module's size limit included, aborts
    with a SampleParseError that names the physical line the first bad record
    starts on.  A file with a header but no data rows raises EmptyInputError.

    Lines are read in chunks and counted, and each distinct line is checked
    once, so parsing costs O(n) hashing plus O(D log D) for D distinct scores,
    and memory is O(D) plus one chunk.  From the first chunk holding a `"`
    on, the rest of the file goes through one `csv.reader`, whose rows are
    counted instead, since a quoted field may span lines.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse_scored_csv(fh)


def parse_scored_csv(lines: Iterable[str]) -> ScoredSamples:
    lines = iter(lines)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("file is empty") from None
    except csv.Error as exc:
        raise SampleParseError(1, str(exc)) from None
    if [column.strip().lower() for column in header] != ["score", "label"]:
        raise SampleParseError(1, f"expected header 'score,label', got {','.join(header)!r}")

    tallies: _Tallies = {True: {}, False: {}}
    first_line = reader.line_num + 1  # the physical number of the chunk's first line
    while chunk := list(islice(lines, _CHUNK_LINES)):
        counted = Counter(chunk)
        if '"' in "".join(counted):
            _tally_quoted(chain(chunk, lines), first_line - 1, tallies)
            break
        # without a quote, every line is one record: parse each distinct one once
        _tally_rows(counted, csv.reader(counted), lambda line: first_line + chunk.index(line), tallies)
        first_line += len(chunk)
    return ScoredSamples.from_tallies(tallies[True], tallies[False])


def _tally_quoted(lines: Iterator[str], lines_before: int, tallies: _Tallies) -> None:
    """Count the rows of one `csv.reader` over `lines` as tuples, a chunk at a
    time; a bad row is numbered by the physical line after the row before it."""
    reader = csv.reader(lines)
    start = 1
    while True:
        chunk, starts, error = [], [], None
        try:
            for row in islice(reader, _CHUNK_LINES):
                chunk.append(tuple(row))
                starts.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            error = exc  # after the rows before it, in file order
        counted = Counter(chunk)
        _tally_rows(counted, iter(counted), lambda row: lines_before + starts[chunk.index(row)], tallies)
        if error is not None:
            raise SampleParseError(lines_before + start, str(error))
        if len(chunk) < _CHUNK_LINES:
            return


def _tally_rows(
    counted: Counter, rows: Iterator[Sequence[str]], line_of: Callable[[object], int], tallies: _Tallies
) -> None:
    """Check `rows`, the row of each distinct key of `counted` in first-occurrence
    order, and add the key's count to its class's score tally.  The first bad
    row, or csv.Error from `rows`, raises SampleParseError at `line_of(key)`."""
    for key, count in counted.items():
        try:
            checked = _check_row(next(rows))
        except (ValueError, csv.Error) as exc:
            raise SampleParseError(line_of(key), str(exc)) from None
        if checked is not None:
            score, is_positive = checked
            tally = tallies[is_positive]
            tally[score] = tally.get(score, 0) + count


def _check_row(row: Sequence[str]) -> tuple[float, bool] | None:
    """(score, is_positive) of one data row, or None for a blank line; a bad
    row raises ValueError."""
    if not row:
        return None
    if len(row) != 2:
        raise ValueError(f"expected 2 fields, got {len(row)}")
    score_text, label_text = row
    try:
        score = float(score_text)
    except ValueError:
        raise ValueError(f"bad score {score_text!r}") from None
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score_text!r} outside [0, 1]")
    return score, parse_label(label_text)
