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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TextIO

from . import csvio
from .confusion import ConfusionMatrix, ScoredSamples
from .errors import BadGridError, CsvFormatError, NoDefinedPointsError
from .metrics import MetricReport, evaluate_all

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
    key_column: str, keys: Sequence[float], matrix_at: Callable[[float], ConfusionMatrix], starts: Sequence[int]
) -> MetricSeries:
    """The series of `matrix_at(key)` and its report for every key of a valid grid.

    `matrix_at` runs once per run of keys from one of `starts`, the ascending
    indices from 0 where the matrix may change, to the next.  A run whose matrix
    equals the run before's reuses that frozen point, so each is evaluated once.
    """
    check_grid(key_column, keys)
    points = []
    point = None
    for start, end in zip(starts, (*starts[1:], len(keys))):
        matrix = matrix_at(keys[start])
        if point is None or matrix != point.matrix:
            point = SeriesPoint(matrix, evaluate_all(matrix))
        points += [point] * (end - start)
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
    samples: ScoredSamples,
    tau0: float = 0.0,
    tau_n: float = 1.0,
    delta: float = 0.01,
) -> MetricSeries:
    """Classify `samples` at every grid threshold and report all metrics.

    With `score > tau` the matrix changes only at the first tau at or above a
    score.  The sweep walks from run to run of equal matrices, three bisects
    each, and counts with `samples.matrix_at` once per run: R <= min(D + 1, G)
    runs for D distinct scores and G taus cost O(R log DG), plus O(G) list work.
    """
    taus = make_grid(tau0, tau_n, delta)
    pos, neg = samples.positive_scores, samples.negative_scores
    starts, i = [], 0
    while i < len(taus):
        starts.append(i)
        # the run ends before the first tau at or above the lowest score above its own tau
        p, q = bisect_right(pos, taus[i]), bisect_right(neg, taus[i])
        lowest = min(pos[p] if p < len(pos) else math.inf, neg[q] if q < len(neg) else math.inf)
        i = bisect_left(taus, lowest, i + 1)
    return build_series("tau", taus, samples.matrix_at, starts)


@dataclass(frozen=True)
class OptimalThreshold:
    tau: float
    distance: float
    metric_pair: str


def optimal_threshold(series: MetricSeries, y_metric: str) -> OptimalThreshold:
    """The tau whose (scaled MCC, `y_metric`) point lies closest to the ideal
    corner (1, 1) of a tau-keyed series, with `y_metric` one of PAIR_METRICS.

    Only points whose two coordinates are both defined compete, and ties go to
    the smallest tau.  A point shared with the key before it (`build_series`
    shares one across each run of equal matrices) is measured once, at the
    first key of its run, which is its smallest tau.
    """
    if series.key_column != "tau":
        raise ValueError(f"paired curves need a tau-keyed series, got {series.key_column!r}")
    if y_metric not in PAIR_METRICS:
        raise ValueError(f"y_metric must be one of {PAIR_METRICS}, got {y_metric!r}")
    pair = f"mcc-{y_metric}"
    best = previous = None
    for tau, point in zip(series.keys, series.points):
        if point is previous:
            continue
        previous = point
        x, y = point.report.mcc_scaled, getattr(point.report, y_metric)
        if not (x.is_defined and y.is_defined):
            continue
        distance = math.hypot(1.0 - x.value, 1.0 - y.value)
        if best is None or distance < best[0]:
            best = (distance, tau)
    if best is None:
        raise NoDefinedPointsError(f"no fully defined points on the {pair} curve")
    distance, tau = best
    return OptimalThreshold(tau=tau, distance=distance, metric_pair=pair)


def write_curve_csv(series: MetricSeries, out: TextIO) -> None:
    """Write a series in the standard metrics CSV layout, keyed by its key column."""
    rows = [(repr(key), point.matrix, point.report) for key, point in zip(series.keys, series.points)]
    csvio.write_rows(out, rows, key_column=series.key_column)


def read_curve_csv(path: str | Path) -> MetricSeries:
    """Read a series CSV written by `write_curve_csv` back, losslessly; a row
    equal to the row before shares its point, as in `build_series`."""
    key_column, rows = csvio.read_rows(path)
    if key_column not in KEY_COLUMNS:
        raise CsvFormatError(f"expected a key column out of {tuple(KEY_COLUMNS)}, got {key_column!r}")
    keys = tuple(float(key) for key, _, _ in rows)
    points = []
    for _, matrix, report in rows:
        points.append(points[-1] if points and points[-1] == (matrix, report) else SeriesPoint(matrix, report))
    return MetricSeries(key_column, keys, tuple(points))
