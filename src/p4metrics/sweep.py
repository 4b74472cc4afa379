"""Keyed metric series, threshold sweeps and paired metric curves.

A series gives one confusion matrix per value of a varied key, a threshold
tau or a simulation's positive fraction or true positive rate, and holds and
evaluates each run of equal neighbouring matrices once.  A threshold sweep
walks the sample set's runs along a grid of taus.  Scaled MCC against F1 or
P4 gives the two comparison curves; one walk, for the library and the `sweep`
command, writes them and picks the optimum, the grid point nearest (1, 1).
"""

from __future__ import annotations

import math
import operator
from itertools import chain, groupby, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from . import csvio
from .confusion import ConfusionMatrix, ScoredSamples, _Record
from .errors import BadGridError, NoDefinedPointsError

if TYPE_CHECKING:
    from array import array

PAIR_METRICS = ("f1", "p4")
# Series key columns, each with whether its values may reach 0 and 1: a
# threshold or a rate may, a positive fraction may not (a class would be empty).
KEY_COLUMNS = {"tau": True, "pos_fraction": False, "tpr": True}
# bounds the memory a grid takes, 0.8 MB of packed doubles; a 1e-4 step on [0, 1] (10 001 taus) fits ten times over
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

    def __init__(self, key_column: str, keys: Sequence[float], matrices: tuple[ConfusionMatrix, ...]):
        if len(keys) != len(matrices):
            raise ValueError("keys and matrices must have equal length")
        self._build(key_column, keys, _runs(matrices))

    def _build(self, key_column: str, keys: Sequence[float], runs: Iterable[tuple]) -> MetricSeries:
        """Check `keys`, kept as a tuple, and evaluate each (first index, end index, a matrix or its counts) run once."""
        check_grid(key_column, keys := tuple(keys))
        self._set(key_column, keys, tuple((start, end, csvio.row(matrix)) for start, end, matrix in runs))
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


def make_grid(tau0: float, tau_n: float, delta: float) -> array:
    """Grid tau0, tau0+delta, ... below tau_n, then tau_n itself, packed in an `array('d')` at 8 bytes a key.

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
    from array import array  # only a sweep needs it, so the CLI starts without it
    keys = array("d", map(q.__rtruediv__, range(start, start + below * step, step)))  # numerator / q, no float kept
    if delta <= 2 * math.ulp(tau_n):  # only so small a step can round neighbours to one float
        keys = array("d", dict.fromkeys(keys))
    if keys[-1] == tau_n:  # the last sum below tau_n may round up to it
        keys.pop()
    keys.append(tau_n)
    return keys


def threshold_sweep(samples: ScoredSamples, tau0: float = 0.0, tau_n: float = 1.0, delta: float = 0.01) -> MetricSeries:
    """Classify `samples` at every grid threshold, passing the runs of `samples.runs_at` to `MetricSeries._build`."""
    taus = make_grid(tau0, tau_n, delta)
    return MetricSeries.__new__(MetricSeries)._build("tau", taus, samples.runs_at(taus))


class OptimalThreshold(_Record):
    __slots__ = _fields = ("tau", "distance", "metric_pair")


def optimal_threshold(series: MetricSeries, y_metric: str) -> OptimalThreshold:
    """The tau whose (scaled MCC, `y_metric`) point lies closest to the ideal
    corner (1, 1) of a tau-keyed series, with `y_metric` one of PAIR_METRICS.

    Only points whose two coordinates are both defined compete, and ties go to
    the smallest tau.  `_walk`, the `sweep` command's walk, measures each run
    of equal matrices once, at its first key, which is its smallest tau.
    """
    if series.key_column != "tau":
        raise ValueError(f"paired curves need a tau-keyed series, got {series.key_column!r}")
    if y_metric not in PAIR_METRICS:
        raise ValueError(f"y_metric must be one of {PAIR_METRICS}, got {y_metric!r}")
    lines, best = _walk(series.keys, series.runs, (y_metric,))
    for _ in lines:  # best is final once the walk is done
        pass
    [(distance, tau)] = best
    return OptimalThreshold(tau=tau, distance=distance, metric_pair=f"mcc-{y_metric}")


def write_curve_csv(series: MetricSeries, out: TextIO) -> None:
    """Write a series in the standard metrics CSV layout, keyed by its key column, by `_walk` with no pair."""
    csvio.write_rows(out, _walk(series.keys, series.runs)[0], series.key_column)


def _walk(keys: Sequence[float], runs: Iterable[tuple], y_metrics: Sequence[str] = (),
          curves: Sequence[list] | None = None) -> tuple[Iterator[tuple], list[tuple[float, float]]]:
    """The curve CSV's (key reprs, row) runs of (first index, end index, `csvio.row`) `runs` along `keys`, and the
    (distance, tau) nearest (1, 1) in the (scaled MCC, y) plane of each y of `y_metrics`, final once the runs are; with
    `curves`, each run's (MCC', y) point, nan for Undefined, joins its pair's list.  Runs are held until every pair has
    a defined point: a walk that ends first raises NoDefinedPointsError for the first with none, before any run."""
    x_at, y_ats = csvio.COLUMNS.index("mcc_scaled"), [csvio.COLUMNS.index(y_metric) for y_metric in y_metrics]
    best = [None] * len(y_ats)
    def walk() -> Iterator[tuple]:
        for start, end, row in runs:
            for i, y_at in enumerate(y_ats):
                x, y = row[x_at], row[y_at]
                if x is not None and y is not None:
                    distance = math.hypot(1.0 - x, 1.0 - y)
                    if best[i] is None or distance < best[i][0]:  # offered in tau order, ties keep the first
                        best[i] = (distance, keys[start])
                if curves is not None:
                    curves[i].append((math.nan if x is None else x, math.nan if y is None else y))
            yield map(repr, keys[start:end]), row
    lines, held = walk(), []
    while None in best:  # errors come before output, so hold the runs until every pair has a defined point
        if (run := next(lines, None)) is None:
            raise NoDefinedPointsError(f"no fully defined points on the mcc-{y_metrics[best.index(None)]} curve")
        held.append(run)
    return chain(held, lines), best
