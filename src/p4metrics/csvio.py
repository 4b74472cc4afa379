"""Shared CSV layout for per-matrix metric tables.

One row = one confusion matrix: an optional leading key column (tau, case,
pos_fraction, ...), the four counts, then every metric in report order.
Undefined metrics are written as `nan`; defined values use the shortest
round-trip decimal, so a written file re-parses to bit-identical floats.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, TextIO

from .confusion import ConfusionMatrix
from .metrics import METRIC_NAMES, _closed_forms

COUNT_COLUMNS = ("tp", "fp", "fn", "tn")
# every column after the optional leading key column
COLUMNS = (*COUNT_COLUMNS, *METRIC_NAMES)


def row(matrix: ConfusionMatrix | tuple[int, int, int, int]) -> tuple:
    """The values in COLUMNS order of `matrix`, or of a matrix's (tp, fp, fn, tn), None where a metric is Undefined."""
    counts = matrix if type(matrix) is tuple else (matrix.tp, matrix.fp, matrix.fn, matrix.tn)
    return (*counts, *_closed_forms(*counts))


def cells(values: Iterable) -> str:
    """The cells of `row` values, comma-joined: reprs, and `nan` for None; none needs quoting."""
    return ",".join(map(repr, values)).replace("None", "nan")  # no repr of an int or float holds "None"


def write_rows(out: TextIO, runs: Iterable[tuple[Iterable[str], tuple]], key_column: str | None) -> None:
    """Write the header, then a line per key of each (keys, `row` values) run, its cells formatted and its
    lines joined once.  Keys are written as given, unquoted; a `key_column` of None drops the column, its keys ''."""
    out.write(",".join(COLUMNS if key_column is None else (key_column, *COLUMNS)) + "\n")
    comma = "" if key_column is None else ","  # after each key; a run of no keys writes nothing
    out.writelines(f"{comma}{cells(values)}\n".join(chain(keys, ("",))) for keys, values in runs)

