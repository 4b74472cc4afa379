"""Keyed metric series, threshold sweeps and paired metric curves.

A series holds one confusion matrix per value of a varied key, a threshold
tau or a simulation's positive fraction or true positive rate, and evaluates
each run of equal neighbouring matrices once.  A threshold sweep classifies
the sample set at every tau on a grid.  Pairing scaled MCC with F1 or P4
gives the two comparison curves, and the optimal threshold is the grid point
closest to the ideal corner (1, 1) in that plane.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import groupby
from pathlib import Path
from typing import Sequence, TextIO

from . import csvio
from .confusion import ConfusionMatrix, ScoredSamples
from .errors import BadGridError, CsvFormatError, NoDefinedPointsError

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


@dataclass(frozen=True)
class MetricSeries:
    """Confusion matrices along one varied key, and their metrics.

    `key_column` names the key (`tau`, `pos_fraction` or `tpr`), `keys` holds
    its values, strictly increasing, and `matrices` one matrix per key.  Each
    run of neighbouring keys with equal matrices is evaluated once: `runs`
    holds (first index, end index, `csvio.row` of the run's matrix) per run.
    """

    key_column: str
    keys: tuple[float, ...]
    matrices: tuple[ConfusionMatrix, ...]
    runs: tuple[tuple[int, int, tuple], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.keys) != len(self.matrices):
            raise ValueError("keys and matrices must have equal length")
        check_grid(self.key_column, self.keys)
        runs, end = [], 0
        for matrix, run in groupby(self.matrices):
            start, end = end, end + sum(1 for _ in run)
            runs.append((start, end, csvio.row(matrix)))
        object.__setattr__(self, "runs", tuple(runs))


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
    """Classify `samples` at every grid threshold.

    With `score > tau` the matrix changes only at the first tau at or above a
    score.  The sweep walks from run to run of equal matrices, three bisects
    each, and counts once per run, whose taus all get that one matrix, which
    the series then evaluates once: R <= min(D + 1, G) runs for D distinct
    scores and G taus cost O(R log DG), plus O(G) list work.  Each run starts
    at or above a score that lay above the run before's tau, so its matrix
    differs from that run's.
    """
    taus = make_grid(tau0, tau_n, delta)
    pos, neg = samples.positive_scores, samples.negative_scores
    matrices, i = [], 0
    while i < len(taus):
        matrix = samples.matrix_at(taus[i])
        # the run ends before the first tau at or above the lowest score above its own tau
        p, q = bisect_right(pos, taus[i]), bisect_right(neg, taus[i])
        lowest = min(pos[p] if p < len(pos) else math.inf, neg[q] if q < len(neg) else math.inf)
        end = bisect_left(taus, lowest, i + 1)
        matrices += [matrix] * (end - i)
        i = end
    return MetricSeries("tau", taus, tuple(matrices))


@dataclass(frozen=True)
class OptimalThreshold:
    tau: float
    distance: float
    metric_pair: str


def optimal_threshold(series: MetricSeries, y_metric: str) -> OptimalThreshold:
    """The tau whose (scaled MCC, `y_metric`) point lies closest to the ideal
    corner (1, 1) of a tau-keyed series, with `y_metric` one of PAIR_METRICS.

    Only points whose two coordinates are both defined compete, and ties go to
    the smallest tau.  Each run of equal matrices is measured once, at its
    first key, which is its smallest tau.
    """
    if series.key_column != "tau":
        raise ValueError(f"paired curves need a tau-keyed series, got {series.key_column!r}")
    if y_metric not in PAIR_METRICS:
        raise ValueError(f"y_metric must be one of {PAIR_METRICS}, got {y_metric!r}")
    pair = f"mcc-{y_metric}"
    best = None
    x_index, y_index = csvio.COLUMNS.index("mcc_scaled"), csvio.COLUMNS.index(y_metric)
    for start, _, row in series.runs:
        x, y = row[x_index], row[y_index]
        if x is None or y is None:
            continue
        distance = math.hypot(1.0 - x, 1.0 - y)
        if best is None or distance < best[0]:
            best = (distance, series.keys[start])
    if best is None:
        raise NoDefinedPointsError(f"no fully defined points on the {pair} curve")
    distance, tau = best
    return OptimalThreshold(tau=tau, distance=distance, metric_pair=pair)


def write_curve_csv(series: MetricSeries, out: TextIO) -> None:
    """Write a series in the standard metrics CSV layout, keyed by its key
    column; each run's cells are formatted once."""
    out.write(",".join((series.key_column, *csvio.COLUMNS)) + "\n")
    for start, end, row in series.runs:
        cells = ",".join(csvio.cells(row))
        out.writelines(f"{key!r},{cells}\n" for key in series.keys[start:end])


def read_curve_csv(path: str | Path) -> MetricSeries:
    """Read a series CSV written by `write_curve_csv` back, losslessly; each
    metric cell must be the value its counts give."""
    key_column, rows = csvio._read_rows(path, float)
    if key_column not in KEY_COLUMNS:
        raise CsvFormatError(f"expected a key column out of {tuple(KEY_COLUMNS)}, got {key_column!r}")
    return MetricSeries(key_column, tuple(key for key, _, _ in rows), tuple(matrix for _, matrix, _ in rows))
