"""Keyed metric series, threshold sweeps and paired metric curves.

A series holds one confusion matrix and its full metric report per value of
a varied key: a threshold tau, or a simulation's positive fraction or true
positive rate.  A threshold sweep classifies the sample set at every tau on
a grid.  Pairing scaled MCC with F1 or P4 gives the two comparison curves,
and the optimal threshold is the grid point closest to the ideal corner
(1, 1) in that plane.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from . import csvio
from .confusion import ConfusionMatrix, Label, ScoredSample
from .errors import BadGridError, CsvFormatError, EmptyInputError, NoDefinedPointsError
from .metrics import MetricReport, MetricValue, evaluate_all

PAIR_METRICS = ("f1", "p4")
# Series key columns, each with whether its values may reach 0 and 1: a
# threshold or a rate may, a positive fraction may not (a class would be empty).
KEY_COLUMNS = {"tau": True, "pos_fraction": False, "tpr": True}
# bounds the memory a grid takes; a 1e-4 step on [0, 1] (10 001 taus) fits ten times over
MAX_GRID_SIZE = 100_001


def check_grid(key_column: str, keys: Sequence[float]) -> None:
    """Raise BadGridError unless `keys` is a non-empty, strictly increasing
    grid inside the range of `key_column`."""
    if key_column not in KEY_COLUMNS:
        raise BadGridError(f"unknown key column {key_column!r}, expected one of {tuple(KEY_COLUMNS)}")
    if len(keys) == 0:
        raise BadGridError("empty grid")
    closed = KEY_COLUMNS[key_column]
    for x in keys:
        if not (0.0 <= x <= 1.0 if closed else 0.0 < x < 1.0):
            bounds = "[0, 1]" if closed else "(0, 1)"
            raise BadGridError(f"{key_column} value {x!r} outside {bounds}")
    for a, b in zip(keys, keys[1:]):
        if not a < b:
            raise BadGridError(f"{key_column} values must be strictly increasing, got {a!r} before {b!r}")


class SeriesPoint(NamedTuple):
    matrix: ConfusionMatrix
    report: MetricReport


@dataclass(frozen=True)
class MetricSeries:
    """Confusion matrices and metric reports along one varied key.

    `key_column` names the key (`tau`, `pos_fraction` or `tpr`) and `keys`
    holds its values, strictly increasing, one per point.
    """

    key_column: str
    keys: tuple[float, ...]
    points: tuple[SeriesPoint, ...]

    def __post_init__(self):
        if len(self.keys) != len(self.points):
            raise ValueError("keys and points must have equal length")
        check_grid(self.key_column, self.keys)


def build_series(
    key_column: str, keys: Sequence[float], matrix_at: Callable[[float], ConfusionMatrix]
) -> MetricSeries:
    """The series of `matrix_at(key)` and its report for every key of a valid grid.

    A key whose matrix equals the previous key's reuses that frozen point, so
    each run of equal neighbouring matrices is evaluated once.
    """
    check_grid(key_column, keys)
    points = []
    point = None
    for key in keys:
        matrix = matrix_at(key)
        if point is None or matrix != point.matrix:
            point = SeriesPoint(matrix, evaluate_all(matrix))
        points.append(point)
    return MetricSeries(key_column, tuple(keys), tuple(points))


def make_grid(tau0: float, tau_n: float, delta: float) -> tuple[float, ...]:
    """Grid tau0, tau0+delta, ... capped to end exactly at tau_n."""
    if not 0.0 < delta < math.inf:
        raise BadGridError(f"delta must be positive and finite, got {delta!r}")
    check_grid("tau", (tau0, tau_n))
    # checked before the loop so that a tiny delta cannot exhaust memory
    if (tau_n - tau0) / delta > MAX_GRID_SIZE - 1:
        raise BadGridError(
            f"delta {delta!r} gives more than {MAX_GRID_SIZE} taus from {tau0!r} to {tau_n!r}"
        )
    taus = []
    i = 0
    while True:
        tau = tau0 + i * delta
        # snap near-misses of the endpoint onto it instead of overshooting
        if tau >= tau_n - delta * 1e-9:
            break
        taus.append(tau)
        i += 1
    taus.append(tau_n)
    return tuple(taus)


def threshold_sweep(
    samples: Sequence[ScoredSample],
    tau0: float = 0.0,
    tau_n: float = 1.0,
    delta: float = 0.01,
) -> MetricSeries:
    """Classify `samples` at every grid threshold and report all metrics.

    Each class's scores are sorted once; at each tau, `bisect_right` counts
    the scores <= tau, the samples called negative under the strict
    `score > tau` rule of `classify_at_threshold`.  The sweep costs
    O(n log n + G log n) for n samples and G taus.
    """
    if len(samples) == 0:
        raise EmptyInputError("no samples to sweep")
    taus = make_grid(tau0, tau_n, delta)
    positives = sorted(s.score for s in samples if s.label is Label.POSITIVE)
    negatives = sorted(s.score for s in samples if s.label is not Label.POSITIVE)

    def matrix_at(tau: float) -> ConfusionMatrix:
        fn = bisect_right(positives, tau)
        tn = bisect_right(negatives, tau)
        return ConfusionMatrix(len(positives) - fn, len(negatives) - tn, fn, tn)

    return build_series("tau", taus, matrix_at)


class PairedCurvePoint(NamedTuple):
    """One threshold's position in the (scaled MCC, F1-or-P4) unit square."""

    tau: float
    x: MetricValue
    y: MetricValue
    pair: str

    @property
    def is_defined(self) -> bool:
        return self.x.is_defined and self.y.is_defined


def paired_curve(curve: MetricSeries, y_metric: str) -> list[PairedCurvePoint]:
    """Project a threshold curve onto x = scaled MCC, y = `y_metric`.

    Points with an undefined coordinate are kept (for export) but flag
    themselves via `is_defined`.
    """
    if curve.key_column != "tau":
        raise ValueError(f"paired curves need a tau-keyed series, got {curve.key_column!r}")
    if y_metric not in PAIR_METRICS:
        raise ValueError(f"y_metric must be one of {PAIR_METRICS}, got {y_metric!r}")
    pair = f"mcc-{y_metric}"
    return [
        PairedCurvePoint(tau, point.report.mcc_scaled, getattr(point.report, y_metric), pair)
        for tau, point in zip(curve.keys, curve.points)
    ]


@dataclass(frozen=True)
class OptimalThreshold:
    tau: float
    distance: float
    metric_pair: str


def optimal_threshold(paired: Iterable[PairedCurvePoint]) -> OptimalThreshold:
    """The tau whose point lies closest to the ideal corner (1, 1).

    Only fully defined points compete; ties go to the smallest tau, so the
    result does not depend on point order.
    """
    best = None
    pair = ""
    for point in paired:
        pair = point.pair
        if not point.is_defined:
            continue
        distance = math.hypot(1.0 - point.x.value, 1.0 - point.y.value)
        if best is None or (distance, point.tau) < best:
            best = (distance, point.tau)
    if best is None:
        raise NoDefinedPointsError(f"no fully defined points on the {pair or 'paired'} curve")
    distance, tau = best
    return OptimalThreshold(tau=tau, distance=distance, metric_pair=pair)


def write_curve_csv(series: MetricSeries, out: TextIO) -> None:
    """Write a series in the standard metrics CSV layout, keyed by its key column."""
    rows = [(repr(key), point.matrix, point.report) for key, point in zip(series.keys, series.points)]
    csvio.write_rows(out, rows, key_column=series.key_column)


def read_curve_csv(path: str | Path) -> MetricSeries:
    """Read a series CSV written by `write_curve_csv` back, losslessly."""
    key_column, rows = csvio.read_rows(path)
    if key_column not in KEY_COLUMNS:
        raise CsvFormatError(f"expected a key column out of {tuple(KEY_COLUMNS)}, got {key_column!r}")
    keys = tuple(float(key) for key, _, _ in rows)
    points = tuple(SeriesPoint(matrix, report) for _, matrix, report in rows)
    return MetricSeries(key_column, keys, points)
