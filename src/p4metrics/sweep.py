"""Keyed metric series, threshold sweeps and paired metric curves.

A series gives one confusion matrix per value of a varied key, a threshold
tau or a simulation's positive fraction or true positive rate, and holds and
evaluates each run of equal neighbouring matrices once.  A threshold sweep
walks the sample set's runs along a grid of taus.  Pairing scaled MCC with
F1 or P4 gives the two comparison curves, and the optimal threshold is the
grid point closest to the ideal corner (1, 1) in that plane.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, Sequence, TextIO

from . import csvio
from .confusion import ConfusionMatrix, ScoredSamples, _Record
from .errors import BadGridError, NoDefinedPointsError

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
    inside = (lambda x: 0.0 <= x <= 1.0) if closed else (lambda x: 0.0 < x < 1.0)
    if all(map(operator.lt, keys, keys[1:])) and inside(keys[0]) and inside(keys[-1]):
        return  # strictly increasing, so inside when its ends are; else name the first bad value
    if outside := [x for x in keys if not inside(x)]:
        raise BadGridError(f"{key_column} value {outside[0]!r} outside {'[0, 1]' if closed else '(0, 1)'}")
    a, b = next((a, b) for a, b in zip(keys, keys[1:]) if not a < b)
    raise BadGridError(f"{key_column} values must be strictly increasing, got {a!r} before {b!r}")


class MetricSeries(_Record):
    """Confusion matrices along one varied key, and their metrics.

    `key_column` names the key (`tau`, `pos_fraction` or `tpr`), `keys` holds its values, strictly
    increasing, and `matrices` one matrix per key, a view expanded from `runs`: (first index, end
    index, `csvio.row` of the matrix) per run of neighbouring keys with equal matrices, evaluated once.
    """

    _fields = ("key_column", "keys", "matrices")
    __slots__ = ("key_column", "keys", "runs")

    def __init__(self, key_column: str, keys: tuple[float, ...], matrices: tuple[ConfusionMatrix, ...]):
        if len(keys) != len(matrices):
            raise ValueError("keys and matrices must have equal length")
        self._build(key_column, keys, ((start, end, csvio.row(matrix)) for start, end, matrix in _runs(matrices)))

    def _build(self, key_column: str, keys: tuple, runs: Iterable[tuple]) -> MetricSeries:
        check_grid(key_column, keys)
        self._set(key_column, keys, tuple(runs))
        return self

    @property
    def matrices(self) -> tuple[ConfusionMatrix, ...]:
        return tuple(chain.from_iterable(repeat(ConfusionMatrix(*row[:4]), end - start) for start, end, row in self.runs))


def _runs(values: Iterable) -> Iterator[tuple]:
    """(first index, end index, value) per run of equal neighbouring `values`."""
    end = 0
    for value, run in groupby(values):
        start, end = end, end + sum(1 for _ in run)
        yield start, end, value


def _decimal_ratio(x: float) -> tuple[int, int]:
    """(p, q), unreduced, with q a power of ten and p / q the decimal value of
    `str(x)`, read as `Decimal(str(x))` reads it: 0.35 gives (35, 100)."""
    digits, _, exponent = str(x).partition("e")
    whole, _, fraction = digits.partition(".")
    e = int(exponent or 0) - len(fraction)
    return (int(whole + fraction) * 10**max(e, 0), 10**max(-e, 0))


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
    (a, p), (b, r), (d, s) = map(_decimal_ratio, (tau0, tau_n, delta))
    q = math.lcm(p, r, s)
    start, end, step = a * q // p, b * q // r, d * q // s
    below = -((start - end) // step)  # ceil((end - start) / step) keys lie below tau_n
    # checked before building so that a tiny delta cannot exhaust memory
    if below >= MAX_GRID_SIZE:
        raise BadGridError(
            f"delta {delta!r} gives more than {MAX_GRID_SIZE} taus from {tau0!r} to {tau_n!r}"
        )
    keys = [numerator / q for numerator in range(start, start + below * step, step)]
    if delta <= 2 * math.ulp(tau_n):  # only so small a step can round neighbours to one float
        keys = list(dict.fromkeys(keys))
    if keys[-1] == tau_n:  # the last sum below tau_n may round up to it
        keys.pop()
    return (*keys, tau_n)


def threshold_sweep(samples: ScoredSamples, tau0: float = 0.0, tau_n: float = 1.0, delta: float = 0.01) -> MetricSeries:
    """Classify `samples` at every grid threshold by `samples.runs_at`, evaluating each run once."""
    taus = make_grid(tau0, tau_n, delta)
    runs = ((start, end, csvio.row(counts)) for start, end, counts in samples.runs_at(taus))
    return MetricSeries.__new__(MetricSeries)._build("tau", taus, runs)


class OptimalThreshold(_Record):
    __slots__ = _fields = ("tau", "distance", "metric_pair")


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
    x_index, y_index = csvio.COLUMNS.index("mcc_scaled"), csvio.COLUMNS.index(y_metric)
    points = ((row[x_index], row[y_index], series.keys[start]) for start, _, row in series.runs)
    defined = ((math.hypot(1.0 - x, 1.0 - y), tau) for x, y, tau in points if x is not None and y is not None)
    distance, tau = min(defined, default=(None, None))  # of equal distances, the smallest tau
    if distance is None:
        raise NoDefinedPointsError(f"no fully defined points on the {pair} curve")
    return OptimalThreshold(tau=tau, distance=distance, metric_pair=pair)


def write_curve_csv(series: MetricSeries, out: TextIO) -> None:
    """Write a series in the standard metrics CSV layout, keyed by its key column."""
    runs = ((map(repr, series.keys[start:end]), row) for start, end, row in series.runs)
    csvio.write_rows(out, runs, series.key_column)

