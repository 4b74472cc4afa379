"""Basic and composite binary-classifier metrics over exact confusion counts.

Policy for 0/0: any metric whose own denominator is zero is Undefined, never
coerced to 0 or 1 (the common MCC=0 convention is deliberately rejected).
Every value is computed in one place, `_closed_forms`, from the integer
counts: each rate is one float division, F1 and P4 are integer closed forms
with one division each, MCC's closed form takes one division and one square
root, J and MK are two rates minus 1, and a scaled metric is `(x + 1) / 2`.
So results are bit-reproducible and exactly symmetric under label swapping.
Each metric's declared range is given once, in `METRIC_RANGES`, which every
returned `MetricValue` is checked against; the CSV readers instead check that
each metric cell is the value `_closed_forms` gives for the row's counts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .confusion import ConfusionMatrix, _Record
from .errors import RangeMismatchError

UNIT_RANGE = (0.0, 1.0)
SIGNED_RANGE = (-1.0, 1.0)

# slack for float round-off when validating declared ranges
_RANGE_TOLERANCE = 1e-12


class MetricValue(_Record):
    """A metric result: either a float in a declared range, or Undefined.

    `value` is None exactly when the metric's own formula hit a zero
    denominator.  Defined values are validated against the declared range
    with 1e-12 of slack for floating evaluation.
    """

    __slots__ = _fields = ("value", "range")

    def __init__(self, value: float | None, range: tuple[float, float] = UNIT_RANGE):
        if value is not None:
            lo, hi = range
            if not (lo - _RANGE_TOLERANCE <= value <= hi + _RANGE_TOLERANCE):
                raise ValueError(f"value {value!r} outside declared range [{lo}, {hi}]")
        self._set(value, range)

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def as_float(self) -> float:
        """The value, with Undefined rendered as nan."""
        return math.nan if self.value is None else self.value


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def _scaled(x: float | None) -> float | None:
    return None if x is None else (x + 1) / 2


def _closed_forms(tp: int, fp: int, fn: int, tn: int) -> tuple[float | None, ...]:
    """Every metric of the matrix in `METRIC_NAMES` order, None where its own
    denominator is zero: the only place a metric's arithmetic is written."""
    prec, rec = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    spec, npv = _ratio(tn, tn + fp), _ratio(tn, tn + fn)
    radicand = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    corr = (tp * tn - fp * fn) / math.sqrt(radicand) if radicand else None
    j = None if rec is None or spec is None else rec + spec - 1
    mk = None if prec is None or npv is None else prec + npv - 1
    p4_num = 4 * tp * tn
    return (
        prec, rec, spec, npv,
        _ratio(2 * tp, 2 * tp + fp + fn),
        _ratio(p4_num, p4_num + (tp + tn) * (fp + fn)),
        corr, _scaled(corr), j, _scaled(j), mk, _scaled(mk),
    )


def _metrics(c: ConfusionMatrix, *names: str) -> list[MetricValue]:
    """The named metrics of `c`, each with its declared range."""
    values = dict(zip(METRIC_NAMES, _closed_forms(c.tp, c.fp, c.fn, c.tn)))
    return [MetricValue(values[name], METRIC_RANGES[name]) for name in names]


class BasicRates(NamedTuple):
    prec: MetricValue
    rec: MetricValue
    spec: MetricValue
    npv: MetricValue


def basic_rates(c: ConfusionMatrix) -> BasicRates:
    """The four conditional rates: PREC, REC, SPEC, NPV.

    prec = tp/(tp+fp), rec = tp/(tp+fn), spec = tn/(tn+fp), npv = tn/(tn+fn);
    each is Undefined iff its own denominator is zero.
    """
    return BasicRates(*_metrics(c, *BasicRates._fields))


def f1(c: ConfusionMatrix) -> MetricValue:
    """F1 = 2*tp / (2*tp + fp + fn), the harmonic mean of PREC and REC.

    The closed form keeps F1 defined (value 0) when tp = 0 but fp + fn > 0;
    it is Undefined only when tp, fp, fn are all zero.
    """
    return _metrics(c, "f1")[0]


def p4(c: ConfusionMatrix) -> MetricValue:
    """P4 = 4*tp*tn / (4*tp*tn + (tp+tn)*(fp+fn)).

    Harmonic mean of PREC, REC, SPEC and NPV; the integer closed form agrees
    with the four-rate harmonic mean wherever all rates are defined and
    positive, and extends it with value 0 when tp or tn is zero.  Undefined
    iff the closed-form denominator is zero.
    """
    return _metrics(c, "p4")[0]


def youden(c: ConfusionMatrix) -> MetricValue:
    """Youden index (informedness): J = REC + SPEC - 1, in [-1, 1]."""
    return _metrics(c, "j")[0]


def markedness(c: ConfusionMatrix) -> MetricValue:
    """Markedness: MK = PREC + NPV - 1, in [-1, 1]."""
    return _metrics(c, "mk")[0]


def mcc(c: ConfusionMatrix) -> MetricValue:
    """Matthews correlation coefficient, in [-1, 1].

    MCC = (tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)).  Numerator
    and radicand are exact integers; the only float steps are one square root
    and one division.  Undefined iff any of the four marginal sums is zero.
    """
    return _metrics(c, "mcc")[0]


def scale_to_unit(v: MetricValue) -> MetricValue:
    """Map a [-1, 1] metric onto [0, 1] via (v + 1) / 2; Undefined propagates."""
    if v.range != SIGNED_RANGE:
        raise RangeMismatchError(f"can only rescale [-1, 1] values, got range {v.range}")
    return MetricValue(_scaled(v.value), UNIT_RANGE)


class MetricReport(_Record):
    """Every metric for one confusion matrix, raw and unit-scaled."""

    __slots__ = _fields = (
        "prec", "rec", "spec", "npv", "f1", "p4", "mcc", "mcc_scaled", "j", "j_scaled", "mk", "mk_scaled",
    )

    def as_dict(self) -> dict[str, MetricValue]:
        """Field-order mapping of metric name to value."""
        return dict(zip(self._fields, self._key(self)))


METRIC_NAMES = MetricReport._fields
# the one declaration of each metric's range, which MetricValue checks
METRIC_RANGES = {name: SIGNED_RANGE if name in ("mcc", "j", "mk") else UNIT_RANGE for name in METRIC_NAMES}

# human-facing spellings used by the CLI tables and chart legends: PREC, MCC, MCC' and so on
DISPLAY_NAMES = {name: name.upper().replace("_SCALED", "'") for name in METRIC_NAMES}


def evaluate_all(c: ConfusionMatrix) -> MetricReport:
    """Compute the full MetricReport for one matrix."""
    return MetricReport(*_metrics(c, *METRIC_NAMES))
