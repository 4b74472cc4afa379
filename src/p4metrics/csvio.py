"""Shared CSV layout for per-matrix metric tables.

One row = one confusion matrix: an optional leading key column (tau, case,
pos_fraction, ...), the four counts, then every metric in report order.
Undefined metrics are written as `nan`; defined values use the shortest
round-trip decimal, so a written file re-parses to bit-identical floats, and
the readers check each metric cell against the value its counts give.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .confusion import ConfusionMatrix
from .errors import CsvFormatError, EmptyMatrixError, NegativeCountError
from .metrics import METRIC_NAMES, _closed_forms

COUNT_COLUMNS = ("tp", "fp", "fn", "tn")
# every column after the optional leading key column
COLUMNS = (*COUNT_COLUMNS, *METRIC_NAMES)


def row(matrix: ConfusionMatrix) -> tuple:
    """`matrix`'s values in COLUMNS order, None where a metric is Undefined."""
    counts = (matrix.tp, matrix.fp, matrix.fn, matrix.tn)
    return (*counts, *_closed_forms(*counts))


def cells(values: Iterable) -> list[str]:
    """The cells of `row` values: reprs, and `nan` for None; none needs quoting."""
    return ["nan" if value is None else repr(value) for value in values]


def write_rows(out: TextIO, rows: Iterable[tuple[str, tuple]], key_column: str | None) -> None:
    """Write (key, `row` values) rows; `key_column` of None drops the key."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS if key_column is None else (key_column, *COLUMNS))
    for key, values in rows:
        line = cells(values)
        writer.writerow(line if key_column is None else [key, *line])


def _parse_cell(name: str, text: str, line_no: int, parse: Callable[[str], object] = float):
    try:
        return parse(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: bad value {text!r} for {name}") from None


def read_rows(path: str | Path) -> tuple[str | None, list[tuple[str, ConfusionMatrix, tuple]]]:
    """Read a metrics CSV back into (key_column, rows) of (key, matrix, `row` values).

    The header must end with the count and metric columns in layout order; at
    most one extra leading column is allowed and becomes the row key (kept as
    its string form).  A leading UTF-8 byte order mark is skipped.
    """
    return _read_rows(path, str)


def _read_rows(path: str | Path, parse_key: Callable[[str], object]) -> tuple[str | None, list[tuple]]:
    """(key_column, rows) of (key, matrix, `row` values), with each key cell
    passed through `parse_key` and each metric cell checked against `row`."""
    expected = list(COLUMNS)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        end = 0  # the last physical line of the record before; a record may span lines
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError("file is empty") from None
            if header[-len(expected):] != expected or len(header) > len(expected) + 1:
                raise CsvFormatError(f"unexpected header {header!r}")
            key_column = header[0] if len(header) == len(expected) + 1 else None

            rows = []
            end = reader.line_num
            for record in reader:
                line_no, end = end + 1, reader.line_num
                if not record:
                    continue
                if len(record) != len(header):
                    raise CsvFormatError(f"line {line_no}: expected {len(header)} fields, got {len(record)}")
                key = _parse_cell(key_column, record.pop(0), line_no, parse_key) if key_column is not None else ""
                try:
                    matrix = ConfusionMatrix(*map(int, record[:4]))
                    # a run of equal neighbouring matrices is evaluated once
                    values = rows[-1][2] if rows and rows[-1][1] == matrix else row(matrix)
                except ValueError:
                    raise CsvFormatError(f"line {line_no}: bad counts {record[:4]!r}") from None
                except (NegativeCountError, EmptyMatrixError, OverflowError) as exc:
                    raise CsvFormatError(f"line {line_no}: {exc}") from None
                # written cells are reprs of these values, so equality is exact
                for name, text, value in zip(METRIC_NAMES, record[4:], values[4:]):
                    parsed = _parse_cell(name, text, line_no)
                    if not (parsed == value or value is None and math.isnan(parsed)):
                        given = cells((value,))[0]
                        raise CsvFormatError(f"line {line_no}: {name} {text} does not match its counts, which give {given}")
                rows.append((key, matrix, values))
        except csv.Error as exc:
            raise CsvFormatError(f"line {end + 1}: {exc}") from None
    return key_column, rows
