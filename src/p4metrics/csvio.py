"""Shared CSV layout for per-matrix metric tables.

One row = one confusion matrix: an optional leading key column (tau, case,
pos_fraction, ...), the four counts, then every metric in report order.
Undefined metrics are written as `nan`; defined values use the shortest
round-trip decimal, so a written file re-parses to bit-identical floats.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .confusion import ConfusionMatrix
from .errors import CsvFormatError, EmptyMatrixError, NegativeCountError
from .metrics import METRIC_NAMES, METRIC_RANGES, MetricReport, MetricValue

COUNT_COLUMNS = ("tp", "fp", "fn", "tn")
# every column after the optional leading key column
COLUMNS = (*COUNT_COLUMNS, *METRIC_NAMES)


def format_value(value: MetricValue) -> str:
    return repr(value.value) if value.is_defined else "nan"


def cells(matrix: ConfusionMatrix, report: MetricReport) -> list[str]:
    """The count and metric cells of one row: ints, float reprs and `nan`,
    none of which needs quoting."""
    counts = (matrix.tp, matrix.fp, matrix.fn, matrix.tn)
    return [*map(str, counts), *map(format_value, report.as_dict().values())]


def write_rows(
    out: TextIO,
    rows: Iterable[tuple[str, ConfusionMatrix, MetricReport]],
    key_column: str | None,
) -> None:
    """Write (key, matrix, report) rows; `key_column` of None drops the key."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS if key_column is None else (key_column, *COLUMNS))
    for key, matrix, report in rows:
        writer.writerow(cells(matrix, report) if key_column is None else [key, *cells(matrix, report)])


def _parse_cell(name: str, text: str, line_no: int, parse: Callable[[str], object] = float):
    try:
        return parse(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: bad value {text!r} for {name}") from None


def _parse_metric(name: str, text: str, line_no: int) -> MetricValue:
    value = _parse_cell(name, text, line_no)
    try:
        return MetricValue(None if math.isnan(value) else value, METRIC_RANGES[name])
    except ValueError as exc:
        raise CsvFormatError(f"line {line_no}: {exc} for {name}") from None


def read_rows(path: str | Path) -> tuple[str | None, list[tuple[str, ConfusionMatrix, MetricReport]]]:
    """Read a metrics CSV back into (key_column, rows).

    The header must end with the count and metric columns in layout order; at
    most one extra leading column is allowed and becomes the row key (kept as
    its string form).  A leading UTF-8 byte order mark is skipped.
    """
    return _read_rows(path, str)


def _read_rows(path: str | Path, parse_key: Callable[[str], object]) -> tuple[str | None, list[tuple]]:
    """`read_rows`, with each key cell passed through `parse_key`."""
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
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
                key = _parse_cell(key_column, row.pop(0), line_no, parse_key) if key_column is not None else ""
                try:
                    matrix = ConfusionMatrix(*map(int, row[:4]))
                except ValueError:
                    raise CsvFormatError(f"line {line_no}: bad counts {row[:4]!r}") from None
                except (NegativeCountError, EmptyMatrixError) as exc:
                    raise CsvFormatError(f"line {line_no}: {exc}") from None
                values = {
                    name: _parse_metric(name, text, line_no)
                    for name, text in zip(METRIC_NAMES, row[4:])
                }
                rows.append((key, matrix, MetricReport(**values)))
        except csv.Error as exc:
            raise CsvFormatError(f"line {end + 1}: {exc}") from None
    return key_column, rows
