"""Confusion-matrix construction, label swapping, and thresholded classification.

Counts are exact non-negative integers throughout; nothing here ever touches
floating point except the sample scores themselves.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import csv
import enum
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import EmptyInputError, EmptyMatrixError, NegativeCountError, SampleParseError


class Label(enum.Enum):
    """Binary class label; `opposite` is an involution."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def opposite(self) -> "Label":
        return Label.NEGATIVE if self is Label.POSITIVE else Label.POSITIVE


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


def from_counts(tp: int, fp: int, fn: int, tn: int) -> ConfusionMatrix:
    """Build a validated ConfusionMatrix from the four counts."""
    return ConfusionMatrix(tp, fp, fn, tn)


def swap_labels(c: ConfusionMatrix) -> ConfusionMatrix:
    """Matrix after renaming positives to negatives and vice versa.

    Exchanges tp with tn and fp with fn; the population size is preserved
    and applying the swap twice returns the original matrix.
    """
    return ConfusionMatrix(tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp)


@dataclass(frozen=True)
class ScoredSamples:
    """Classifier scores in [0, 1] of the actual positives and negatives, each
    class sorted ascending into a tuple once.  A score outside [0, 1] or NaN
    raises ValueError, and no samples at all EmptyInputError."""

    positives: tuple[float, ...]
    negatives: tuple[float, ...]

    def __post_init__(self):
        for name in ("positives", "negatives"):
            scores = tuple(sorted(getattr(self, name)))
            # a NaN may sort anywhere, but it makes the sum NaN
            if scores and (math.isnan(sum(scores)) or scores[0] < 0.0 or scores[-1] > 1.0):
                bad = next(score for score in scores if not 0.0 <= score <= 1.0)
                raise ValueError(f"{name} score must be in [0, 1], got {bad!r}")
            object.__setattr__(self, name, scores)
        if not self.positives and not self.negatives:
            raise EmptyInputError("no samples")

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def matrix_at(self, tau: float) -> ConfusionMatrix:
        """The matrix of calling a sample positive iff score > tau, in O(log n):
        `bisect_right` counts the scores <= tau, the samples called negative."""
        fn = bisect_right(self.positives, tau)
        tn = bisect_right(self.negatives, tau)
        return ConfusionMatrix(len(self.positives) - fn, len(self.negatives) - tn, fn, tn)


def classify_at_threshold(samples: ScoredSamples, tau: float) -> ConfusionMatrix:
    """`samples.matrix_at(tau)` for a tau checked to lie in [0, 1], in O(log n).

    The comparison is strict, so tau=0 marks every sample with a nonzero
    score positive and tau=1 classifies everything negative.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")
    return samples.matrix_at(tau)


_LABEL_ALIASES = {
    "1": Label.POSITIVE,
    "positive": Label.POSITIVE,
    "0": Label.NEGATIVE,
    "negative": Label.NEGATIVE,
}


def parse_label(text: str) -> Label:
    """Parse `1`/`0`/`positive`/`negative` (case-insensitive) into a Label."""
    label = _LABEL_ALIASES.get(text.strip().lower())
    if label is None:
        raise ValueError(f"unknown label {text!r}")
    return label


def read_scored_csv(path: str | Path) -> ScoredSamples:
    """Read a `score,label` CSV of scored samples, strictly.

    The header is required.  Scores must be decimals in [0, 1] and labels one
    of 1/0/positive/negative (case-insensitive); anything else, a field over
    the csv module's size limit included, aborts with a line-numbered
    SampleParseError.  A file with a header but no data rows raises
    EmptyInputError.  Each class's scores are sorted once, in O(n log n).
    """
    with open(path, newline="") as fh:
        return parse_scored_csv(fh)


def parse_scored_csv(lines: Iterable[str]) -> ScoredSamples:
    reader = csv.reader(lines)
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError("file is empty") from None
        if [column.strip().lower() for column in header] != ["score", "label"]:
            raise SampleParseError(1, f"expected header 'score,label', got {','.join(header)!r}")

        positives, negatives = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) != 2:
                raise SampleParseError(line_no, f"expected 2 fields, got {len(row)}")
            score_text, label_text = row
            try:
                score = float(score_text)
            except ValueError:
                raise SampleParseError(line_no, f"bad score {score_text!r}") from None
            if not 0.0 <= score <= 1.0:
                raise SampleParseError(line_no, f"score {score_text!r} outside [0, 1]")
            try:
                label = parse_label(label_text)
            except ValueError:
                raise SampleParseError(line_no, f"unknown label {label_text!r}") from None
            (positives if label is Label.POSITIVE else negatives).append(score)
    except csv.Error as exc:
        raise SampleParseError(reader.line_num, str(exc)) from None
    return ScoredSamples(positives, negatives)
