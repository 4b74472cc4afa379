"""Confusion-matrix construction, label swapping, and thresholded classification.

Counts are exact non-negative integers throughout; nothing here ever touches
floating point except the sample scores themselves.  All values are immutable
and all operations are pure functions.
"""

from __future__ import annotations

import csv
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyInputError, EmptyMatrixError, NegativeCountError, SampleParseError


class _Record:
    """A frozen value whose fields, `_fields` in order, are slots.  It equals, and
    hashes as, a value of its own type with equal fields, reprs as
    `Name(field=value, ...)`, and copies and pickles."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)  # the fields' values, as a tuple
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):  # the fields, by position or keyword
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        self._set(*map(values.get, self._fields))

    def _set(self, *values) -> None:  # each slot's value, in order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:  # (None, slots) from object.__getstate__
        self._set(*map(state[1].get, self.__slots__))

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ConfusionMatrix(_Record):
    """2x2 contingency table of a binary classifier against a population.

    tp/fp/fn/tn are validated at construction: integral, non-negative, and
    not all zero (an empty population is unconstructible).
    """

    __slots__ = _fields = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        for name, value in zip(self._fields, (tp, fp, fn, tn)):
            try:
                value = operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise NegativeCountError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        if not any(self._key(self)):
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


class ScoredSamples(_Record):
    """Classifier scores in [0, 1] of the actual positives and negatives, kept
    per class as a staircase: the distinct scores in ascending order, and the
    cumulative number of samples scoring at or below each one, after a leading
    0.  Memory is O(distinct scores), not O(n).

    `ScoredSamples(positives, negatives)` takes each class's scores and
    `ScoredSamples.from_tallies` each class's score -> count mapping; equal
    floats (0.5 and 0.50) are one step.  A score outside [0, 1] or NaN raises
    ValueError, and no samples at all EmptyInputError.
    """

    __slots__ = _fields = ("positive_scores", "positive_cumulative", "negative_scores", "negative_cumulative")

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
            cumulative = accumulate(map(tally.__getitem__, scores), initial=0)
            object.__setattr__(self, f"{name}_cumulative", tuple(cumulative))
        if len(self) == 0:
            raise EmptyInputError("no samples")

    def __len__(self) -> int:
        return self.positive_cumulative[-1] + self.negative_cumulative[-1]

    def matrices_at(self, taus: Iterable[float]) -> tuple[ConfusionMatrix, ...]:
        """One matrix per tau of the ascending `taus`, calling a sample positive
        iff score > tau; taus out of order raise ValueError.  A matrix changes
        only at a score, so the walk counts once per run of equal matrices, by
        three bisects: one per class for the counts at the run's first tau, and
        one for the run's end.  R <= min(D + 1, G) runs for D distinct scores
        and G taus cost O(R log DG), plus O(G) list work."""
        taus = list(taus)
        if not all(map(operator.le, taus, taus[1:])):  # a NaN among taus fails too
            raise ValueError("taus must ascend")
        pos, neg = self.positive_scores, self.negative_scores
        matrices, i = [], 0
        while i < len(taus):
            p, q = bisect_right(pos, taus[i]), bisect_right(neg, taus[i])
            fn, tn = self.positive_cumulative[p], self.negative_cumulative[q]
            matrix = ConfusionMatrix(self.positive_cumulative[-1] - fn, self.negative_cumulative[-1] - tn, fn, tn)
            # the run ends before the first tau at or above the lowest score above its own tau
            lowest = min(pos[p] if p < len(pos) else math.inf, neg[q] if q < len(neg) else math.inf)
            end = bisect_left(taus, lowest, i + 1)
            matrices += [matrix] * (end - i)
            i = end
        return tuple(matrices)


def classify_at_threshold(samples: ScoredSamples, tau: float) -> ConfusionMatrix:
    """The matrix of `samples` at one tau checked to lie in [0, 1], in O(log n).

    The comparison is strict, so tau=0 marks every sample with a nonzero
    score positive and tau=1 classifies everything negative.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")
    return samples.matrices_at((tau,))[0]


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
    on, since a quoted field may span lines, one `csv.reader` reads the rest
    a record at a time, and each is checked as it is read: one check per row.
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
            _tally_quoted(chain(chunk, lines), first_line, tallies)
            break
        # without a quote, every line is one record: parse each distinct one once
        rows = csv.reader(counted)
        for line, count in counted.items():
            try:
                _tally(tallies, next(rows), count)
            except (ValueError, csv.Error) as exc:
                raise SampleParseError(first_line + chunk.index(line), str(exc)) from None
        first_line += len(chunk)
    return ScoredSamples.from_tallies(tallies[True], tallies[False])


def _tally_quoted(lines: Iterator[str], first_line: int, tallies: _Tallies) -> None:
    """Check and count, as it is read, each row of a `csv.reader` over `lines`, which begin on line `first_line`."""
    reader = csv.reader(lines)
    start = first_line  # the physical line the next record starts on
    try:
        for row in reader:
            _tally(tallies, row, 1)
            start = first_line + reader.line_num
    except (ValueError, csv.Error) as exc:
        raise SampleParseError(start, str(exc)) from None


def _tally(tallies: _Tallies, row: Sequence[str], count: int) -> None:
    """Check one data row and add `count` samples of its score to its class's
    tally; a blank line adds nothing, and a bad row raises ValueError."""
    if not row:
        return
    if len(row) != 2:
        raise ValueError(f"expected 2 fields, got {len(row)}")
    score_text, label_text = row
    try:
        score = _parse_number(score_text)
    except ValueError:
        raise ValueError(f"bad score {score_text!r}") from None
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score_text!r} outside [0, 1]")
    tally = tallies[parse_label(label_text)]
    tally[score] = tally.get(score, 0) + count


def _parse_number(text: str, parse: Callable[[str], float] = float):
    """`parse(text)` of a number cell, `float` or `int`, which must be ASCII and
    hold no `_`: both read '4_5' as 45 and '٨955' as 8955, yet no writer spells
    a number so.  Any bad text raises ValueError("bad number '<text>'")."""
    try:
        if "_" not in text and text.isascii():
            return parse(text)
    except ValueError:
        pass
    raise ValueError(f"bad number {text!r}")
