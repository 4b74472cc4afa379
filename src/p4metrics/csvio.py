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
from typing import Iterable, TextIO

from .confusion import ConfusionMatrix
from .errors import CsvFormatError
from .metrics import METRIC_NAMES, SIGNED_RANGE, UNIT_RANGE, MetricReport, MetricValue

COUNT_COLUMNS = ("tp", "fp", "fn", "tn")
_SIGNED_COLUMNS = frozenset({"mcc", "j", "mk"})


def format_value(value: MetricValue) -> str:
    return repr(value.value) if value.is_defined else "nan"


def write_rows(
    out: TextIO,
    rows: Iterable[tuple[str, ConfusionMatrix, MetricReport]],
    key_column: str | None,
) -> None:
    """Write (key, matrix, report) rows; `key_column` of None drops the key.

    A row whose matrix and report are the objects of the row before reuses
    that row's formatted cells.
    """
    writer = csv.writer(out, lineterminator="\n")
    header = list(COUNT_COLUMNS) + list(METRIC_NAMES)
    if key_column is not None:
        header.insert(0, key_column)
    writer.writerow(header)
    matrix_before = report_before = cells = None
    for key, matrix, report in rows:
        if matrix is not matrix_before or report is not report_before:
            cells = [matrix.tp, matrix.fp, matrix.fn, matrix.tn]
            cells += [format_value(value) for value in report.as_dict().values()]
            matrix_before, report_before = matrix, report
        writer.writerow(cells if key_column is None else [key, *cells])


def _parse_metric(name: str, text: str, line_no: int) -> MetricValue:
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: bad value {text!r} for {name}") from None
    declared = SIGNED_RANGE if name in _SIGNED_COLUMNS else UNIT_RANGE
    if math.isnan(value):
        return MetricValue(None, declared)
    return MetricValue(value, declared)


def read_rows(path: str | Path) -> tuple[str | None, list[tuple[str, ConfusionMatrix, MetricReport]]]:
    """Read a metrics CSV back into (key_column, rows).

    The header must end with the count and metric columns in layout order; at
    most one extra leading column is allowed and becomes the row key (kept as
    its string form).
    """
    expected = list(COUNT_COLUMNS) + list(METRIC_NAMES)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError("file is empty") from None
            if header[-len(expected):] != expected or len(header) > len(expected) + 1:
                raise CsvFormatError(f"unexpected header {header!r}")
            key_column = header[0] if len(header) == len(expected) + 1 else None

            rows = []
            for row in reader:
                line_no = reader.line_num  # physical: a quoted field may span lines
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
                key = row.pop(0) if key_column is not None else ""
                try:
                    counts = [int(field) for field in row[:4]]
                except ValueError:
                    raise CsvFormatError(f"line {line_no}: bad counts {row[:4]!r}") from None
                values = {
                    name: _parse_metric(name, text, line_no)
                    for name, text in zip(METRIC_NAMES, row[4:])
                }
                rows.append((key, ConfusionMatrix(*counts), MetricReport(**values)))
        except csv.Error as exc:
            raise CsvFormatError(f"line {reader.line_num}: {exc}") from None
    return key_column, rows
