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
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

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


def make_grid(tau0: float, tau_n: float, delta: float) -> tuple[float, ...]:
    """Grid tau0, tau0+delta, ... below tau_n, then tau_n itself.

    Each key is the float nearest the exact decimal sum of the values as
    written, so delta 0.03 gives 0.33 and not 0.32999999999999996: a score
    equal to a printed key is not above it.  Sums that round to one float
    give one key, so delta 1/7 ends 0.8571428571428571, 1.0.
    """
    if not 0.0 < delta < math.inf:
        raise BadGridError(f"delta must be positive and finite, got {delta!r}")
    check_grid("tau", (tau0, tau_n))
    (a, p), (b, r), (d, s) = (Decimal(str(x)).as_integer_ratio() for x in (tau0, tau_n, delta))
    q = math.lcm(p, r, s)
    start, end, step = a * q // p, b * q // r, d * q // s
    below = -((start - end) // step)  # ceil((end - start) / step) keys lie below tau_n
    # checked before building so that a tiny delta cannot exhaust memory
    if below >= MAX_GRID_SIZE:
        raise BadGridError(
            f"delta {delta!r} gives more than {MAX_GRID_SIZE} taus from {tau0!r} to {tau_n!r}"
        )
    keys = [(start + i * step) / q for i in range(below)]
    if delta <= 2 * math.ulp(tau_n):  # only so small a step can round neighbours to one float
        keys = list(dict.fromkeys(keys))
    if keys[-1] == tau_n:  # the last sum below tau_n may round up to it
        keys.pop()
    return (*keys, tau_n)


def threshold_sweep(
    samples: ScoredSamples,
    tau0: float = 0.0,
    tau_n: float = 1.0,
    delta: float = 0.01,
) -> MetricSeries:
    """Classify `samples` at every grid threshold and report all metrics.

    With `score > tau` the matrix changes only at the first tau at or above a
    score.  The sweep walks from run to run of equal matrices, three bisects
    each, and counts and evaluates once per run, whose taus all share that one
    point: R <= min(D + 1, G) runs for D distinct scores and G taus cost
    O(R log DG), plus O(G) list work.  Each run starts at or above a score
    that lay above the run before's tau, so its matrix differs from that run's.
    """
    taus = make_grid(tau0, tau_n, delta)
    pos, neg = samples.positive_scores, samples.negative_scores
    points, i = [], 0
    while i < len(taus):
        matrix = samples.matrix_at(taus[i])
        # the run ends before the first tau at or above the lowest score above its own tau
        p, q = bisect_right(pos, taus[i]), bisect_right(neg, taus[i])
        lowest = min(pos[p] if p < len(pos) else math.inf, neg[q] if q < len(neg) else math.inf)
        end = bisect_left(taus, lowest, i + 1)
        points += [SeriesPoint(matrix, evaluate_all(matrix))] * (end - i)
        i = end
    return MetricSeries("tau", taus, tuple(points))


@dataclass(frozen=True)
class OptimalThreshold:
    tau: float
    distance: float
    metric_pair: str


def optimal_threshold(series: MetricSeries, y_metric: str) -> OptimalThreshold:
    """The tau whose (scaled MCC, `y_metric`) point lies closest to the ideal
    corner (1, 1) of a tau-keyed series, with `y_metric` one of PAIR_METRICS.

    Only points whose two coordinates are both defined compete, and ties go to
    the smallest tau.  A point shared with the key before it (`threshold_sweep`
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
    """Write a series in the standard metrics CSV layout, keyed by its key
    column; a point shared with the key before it is formatted once."""
    out.write(",".join((series.key_column, *csvio.COLUMNS)) + "\n")
    previous = cells = None
    for key, point in zip(series.keys, series.points):
        if point is not previous:
            previous, cells = point, ",".join(csvio.cells(*point)) + "\n"
        out.write(f"{key!r},{cells}")


def read_curve_csv(path: str | Path) -> MetricSeries:
    """Read a series CSV written by `write_curve_csv` back, losslessly; a row
    equal to the row before shares its point, as in `threshold_sweep`."""
    key_column, rows = csvio._read_rows(path, float)
    if key_column not in KEY_COLUMNS:
        raise CsvFormatError(f"expected a key column out of {tuple(KEY_COLUMNS)}, got {key_column!r}")
    keys = tuple(key for key, _, _ in rows)
    points = []
    for _, matrix, report in rows:
        points.append(points[-1] if points and points[-1] == (matrix, report) else SeriesPoint(matrix, report))
    return MetricSeries(key_column, keys, tuple(points))
