"""Confusion-matrix construction, label swapping, and thresholded classification.

Counts are exact non-negative integers throughout; nothing here ever touches
floating point except the sample scores themselves.  All values are immutable,
and construction, label swapping and classification are pure functions;
`read_scored_csv` and its helpers read files, and may fork to read one.
"""

from __future__ import annotations

import csv
import marshal
import math
import operator
import os
import stat
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

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

    def __setstate__(self, state) -> None:  # (None, slots) from object.__getstate__; a slot missing raises KeyError
        self._set(*map(state[1].__getitem__, self.__slots__))

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
        return cls.__new__(cls)._build(positives, negatives)

    def _build(self, positives: Mapping[float, int], negatives: Mapping[float, int]) -> "ScoredSamples":
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
        return self

    def __len__(self) -> int:
        return self.positive_cumulative[-1] + self.negative_cumulative[-1]

    def runs_at(self, taus: Sequence[float]) -> Iterator[tuple[int, int, tuple[int, int, int, int]]]:
        """(first index, end index, (tp, fp, fn, tn)) per run of equal counts along the ascending `taus`,
        a sample positive iff score > tau; taus out of order raise ValueError when iteration starts.  Counts
        change only at a score, so neighbouring runs differ, and a run costs three bisects: one per class for
        its counts, one for its end.  R <= min(D + 1, G) runs for D distinct scores and G taus cost O(R log DG)."""
        if not all(map(operator.le, taus, taus[1:])):  # a NaN among taus fails too
            raise ValueError("taus must ascend")
        pos, neg = self.positive_scores, self.negative_scores
        i = 0
        while i < len(taus):
            p, q = bisect_right(pos, taus[i]), bisect_right(neg, taus[i])
            fn, tn = self.positive_cumulative[p], self.negative_cumulative[q]
            # the run ends before the first tau at or above the lowest score above its own tau, if any
            lowest = min(pos[p] if p < len(pos) else math.inf, neg[q] if q < len(neg) else math.inf)
            end = bisect_left(taus, lowest, i + 1) if lowest < math.inf else len(taus)
            yield i, end, (self.positive_cumulative[-1] - fn, self.negative_cumulative[-1] - tn, fn, tn)
            i = end


def classify_at_threshold(samples: ScoredSamples, tau: float) -> ConfusionMatrix:
    """The matrix of `samples` at one tau checked to lie in [0, 1], from its one run, in O(log D) for D distinct scores.

    The comparison is strict, so tau=0 marks every sample with a nonzero
    score positive and tau=1 classifies everything negative.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau!r}")
    return ConfusionMatrix(*next(samples.runs_at((tau,)))[2])


# text lines a scored CSV is read by at a time, and the number of distinct lines held that flushes the counts
_CHUNK_LINES = 65_536
# bytes a scored-CSV file is read by at a time, small: a block's line list is the working set of either route
_BLOCK_BYTES = 16_384
_SPLIT_BYTES = 2 << 20  # the least bytes of a scored-CSV file worth counting in a range of its own

_LABEL_ALIASES = {"1": True, "positive": True, "0": False, "negative": False}


def parse_label(text: str) -> bool:
    """Whether `1`/`0`/`positive`/`negative` (case-insensitive, surrounding
    whitespace ignored) names the positive class; anything else raises
    ValueError."""
    is_positive = _LABEL_ALIASES.get(text)  # most labels are written as an alias
    if is_positive is None and (is_positive := _LABEL_ALIASES.get(text.strip().lower())) is None:
        raise ValueError(f"unknown label {text!r}")
    return is_positive


def read_scored_csv(path: str | Path) -> ScoredSamples:
    """Read a `score,label` CSV of scored samples, strictly.

    The header is required.  Scores must be decimals in [0, 1] and labels one
    of 1/0/positive/negative (case-insensitive); anything else, a byte that
    is not UTF-8 or a field over the csv module's size limit included, aborts
    with a SampleParseError that names the physical line the first bad record
    starts on.  A file with a header but no data rows raises EmptyInputError.

    The file, less a UTF-8 BOM, is read in blocks, split at LF, CRLF and lone
    CR as `open(newline="")` splits it; a line, the header's too, is decoded and
    checked when first counted since the counts were last flushed, once
    `_CHUNK_LINES` were held.  Parsing costs O(n) hashing plus O(D log D) for D distinct scores, memory
    O(D) plus a block; once a line is not one good record alone, each record is checked.

    A regular file of at least 2 * `_SPLIT_BYTES` is first read in byte
    ranges split at line ends, one per CPU the process may run on, when
    `os.fork` exists and no other thread runs: this process tallies the first
    range and one forked child each other range, each by the same loop as the
    reader above, and the tallies are added in file order.  A line, the
    header included, that is not one good record, or a child that fails or
    cannot be started sends the whole file through the reader above, so every
    result and error is the same.  No child outlives the call.
    """
    with open(path, "rb") as fh:
        if len(bounds := _split_bounds(fh)) > 2:
            if (samples := _read_ranges(path, fh, bounds)) is not None:
                return samples
            fh.seek(0)
        return _parse(_byte_lines(fh), _decoded)


def parse_scored_csv(lines: Iterable[str]) -> ScoredSamples:
    """`read_scored_csv` of text `lines`, with or without their line ends, read
    by the same rules `_CHUNK_LINES` at a time; a BOM is not stripped."""
    lines = iter(lines)
    return _parse(iter(lambda: list(islice(lines, _CHUNK_LINES)), []), iter)


def _decoded(lines: Iterable[bytes]) -> Iterator[str]:
    """Byte `lines` as text, a byte that is not UTF-8 as a lone surrogate."""
    return map(bytes.decode, lines, repeat("utf-8"), repeat("surrogateescape"))


def _byte_lines(fh, size: float = math.inf, bom: bytes = b"\xef\xbb\xbf") -> Iterator[list[bytes]]:
    """The lines of the next `size` bytes of binary `fh`, less a leading `bom`: a non-empty list per block
    that ends a line or carries one longer than a scored CSV's record of 2 fields can be, cut there; then the rest."""
    longest = 2 * (4 * csv.field_size_limit() + 1) + 1  # 2 fields of 4-byte characters, a comma between, a CRLF
    head = fh.read(min(len(bom), size))
    parts, size = [head.removeprefix(bom)], size - len(head)  # the blocks since the last line end, joined once one is read
    while block := fh.read(min(_BLOCK_BYTES, size)):
        parts.append(block)
        size -= len(block)
        if b"\n" in block or b"\r" in block or sum(map(len, parts)) > longest:
            lines = b"".join(parts).splitlines(keepends=True)
            # keep a line with no end yet, or a CR that may begin a CRLF, unless it is too long to be a record's
            parts = [] if lines[-1].endswith(b"\n") or len(lines[-1]) > longest else [lines.pop()]
            if lines:
                yield lines
    yield b"".join(parts).splitlines(keepends=True)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_bounds(fh) -> list[int]:
    """The offsets that split binary file `fh` into ranges to count apart, 0 and
    its size included; [0, size] or [] when it is not worth or safe to split.
    Each inner offset follows the first line read from k * size / N for N
    ranges, split by `bytes.splitlines` as `_byte_lines` splits, when its line
    end starts in the block there; a block without one gives no offset."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return []
    info = os.fstat(fd := fh.fileno())
    size = info.st_size
    if not stat.S_ISREG(info.st_mode) or size < 2 * _SPLIT_BYTES:
        return []
    ranges = min(_cpus(), size // _SPLIT_BYTES)
    bounds = [0]
    for k in range(1, ranges):
        at = k * size // ranges
        # the block and the byte after it, so that a CR at the block's end is cut with a CRLF's LF; none if the file shrank
        line = (os.pread(fd, _BLOCK_BYTES + 1, at).splitlines(keepends=True) or [b""])[0]
        if len(line.rstrip(b"\r\n")) < min(len(line), _BLOCK_BYTES) and bounds[-1] < at + len(line) < size:
            bounds.append(at + len(line))
    return bounds + [size]


def _read_ranges(path: str | Path, fh, bounds: list[int]) -> ScoredSamples | None:
    """The samples of the file `fh` opened at `path`, tallied by `_tally` in
    ranges between `bounds`, the first here and each other in a forked child;
    None if it must be read whole.  Every child is reaped before this returns."""
    children, fds = [], []  # (pid, pipe's read end) of each child not yet reaped, and fds to close
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            try:
                fds += os.pipe()
                pid = os.fork()
            except OSError:  # no file or process to spare
                return None
            if pid == 0:
                _tally_range(path, fh.fileno(), start, end, *fds[-2:])
            children.append((pid, fds[-2]))
            os.close(fds.pop())
        tallies, rest, _ = _tally(_byte_lines(fh, bounds[1]), _decoded)
        while rest is None and children:
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0:
                return None
            try:  # in file order, so that a score keeps the float the serial reader first sees (0.0 or -0.0)
                for key, tally in marshal.loads(data).items():
                    _add(tallies, tally.values(), zip(repeat(key), tally))
            except (EOFError, ValueError, TypeError):  # a result cut short
                return None
    finally:
        for fd in fds:
            os.close(fd)
        if children:
            from signal import SIGKILL

            for pid, _ in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return ScoredSamples.from_tallies(tallies[True], tallies[False]) if rest is None else None


def _tally_range(path: str | Path, fd: int, start: int, end: int, read: int, write: int) -> NoReturn:
    """In a forked child: write the tallies `_tally` gives of the lines between
    bytes `start` and `end` of the file open as `fd` at `path`, after a
    `score,label` header, to the pipe, then exit 0; exit 1 without them, for a
    line that is not one good record too.  It never returns, runs no exit
    handler and flushes no stream of its parent's."""
    code = 1
    try:
        os.close(read)
        with open(path, "rb") as fh:  # its own offset: a forked file shares one
            if os.path.samestat(os.fstat(fh.fileno()), os.fstat(fd)):
                fh.seek(start)
                tallies, rest, _ = _tally(chain([[b"score,label\n"]], _byte_lines(fh, end - start, b"")), _decoded)
                if rest is None:
                    with open(write, "wb") as pipe:
                        marshal.dump(tallies, pipe)
                    code = 0
    finally:
        os._exit(code)


def _header(row: Sequence[str]) -> None:
    """Check the header row, `score,label` with its fields stripped and lower-cased; a bad one raises ValueError."""
    if [column.strip().lower() for column in row] != ["score", "label"]:
        raise ValueError(f"expected header 'score,label', got {','.join(row)!r}")


def _parse(chunks: Iterator[list], decoded: Callable[[Iterable], Iterator[str]]) -> ScoredSamples:
    """Scored samples from `chunks`, lists of lines which `decoded(lines)` gives as text: `_tally`'s
    counts, then the record loop over the rest it leaves, whose record on line 1, if any, is the header."""
    tallies, rest, first_line = _tally(chunks, decoded)
    reader, start = csv.reader(rest or ()), first_line  # and the physical line the next record starts on
    try:
        if start == 1:  # no chunk was counted: the rest starts with the header record
            _header(next(reader))
            start = 1 + reader.line_num
        for row in reader:
            is_positive, score = _sample(row)
            tallies[is_positive][score] = tallies[is_positive].get(score, 0) + 1
            start = first_line + reader.line_num
    except StopIteration:
        raise EmptyInputError("file is empty") from None
    except (ValueError, csv.Error) as exc:
        raise SampleParseError(start, str(exc)) from None
    return ScoredSamples.from_tallies(tallies[True], tallies[False])


def _tally(chunks: Iterator[list], decoded: Callable[[Iterable], Iterator[str]]) -> tuple[dict, Iterator[str] | None, int]:
    """Tally the lines of `chunks`, lists of lines which `decoded(lines)` gives
    as text, each distinct line checked once per flush, and the header, the
    first line, with the first chunk's new lines.  Return the score -> count
    tallies per class; the text, unread, from the first chunk with a new line,
    the header included, that is not one good record on its own, else None;
    and the physical number of its first line, or of the next: 1 while the header is not counted."""
    tallies = {True: {}, False: {}, None: {}}  # score -> count per class, keyed by is_positive; None for blank lines
    counts, samples = Counter(), []  # lines counted since the last flush, in first-sight order, and their samples
    chunk = next(chunks, [])
    head, rest, first_line = chunk[:1], None, 1  # the header line, and the physical number of the next line
    for chunk in chain([chunk[1:]], chunks):
        known = len(counts)
        counts.update(chunk)
        new = list(islice(reversed(counts), len(counts) - known))[::-1]
        rows = csv.reader(chain(decoded(chain(head, new)), [""]))  # a line open in quotes takes in the next or the blank
        try:  # each line is one whole record when it gives one row, and the blank line the last, []
            if head:
                _header(next(rows))
            samples.extend(map(_sample, islice(rows, len(new))))
            if list(rows) != [[]]:
                raise ValueError("a record over many lines")
        except (ValueError, csv.Error):  # the record loop reads the rest, and names the first bad record's line
            counts.subtract(chunk)  # its first-seen lines, past the end of `samples`, add nothing
            del samples[known:]
            rest = decoded(chain(head, chunk, chain.from_iterable(chunks)))
            break
        if len(counts) >= _CHUNK_LINES:
            _add(tallies, counts.values(), samples)
            counts, samples = Counter(), []
        first_line += len(head) + len(chunk)
        head = []
    _add(tallies, counts.values(), samples)
    return tallies, rest, first_line


def _add(tallies: dict, counts: Iterable[int], samples: Iterable[tuple]) -> None:
    """Add each count to the tally of its (is_positive, score) sample."""
    for count, (is_positive, score) in zip(counts, samples):
        tallies[is_positive][score] = tallies[is_positive].get(score, 0) + count


def _sample(row: Sequence[str]) -> tuple[bool | None, float | None]:
    """The (is_positive, score) of a checked data row, (None, None) if blank; a bad row raises ValueError."""
    if not row:
        return None, None
    if len(row) != 2:
        raise ValueError(f"expected 2 fields, got {len(row)}")
    score_text, label_text = row
    try:
        score = _parse_number(score_text)
    except ValueError:
        raise ValueError(f"bad score {score_text!r}") from None
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score_text!r} outside [0, 1]")
    return parse_label(label_text), score


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
