"""Deterministic simulated-classifier studies.

A simulated classifier is plain rate arithmetic: fix the population size, the
positive fraction, and the per-class accuracy rates, and the confusion matrix
follows.  Rounding is half away from zero, exact on each rate's decimal
value as written, applied first to the number of actual positives and then
to tp and tn, with fn and fp as exact remainders; this scheme reproduces the
reference matrices C1..C4 bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .confusion import ConfusionMatrix
from .errors import DegeneratePopulationError
from .sweep import MetricSeries, make_grid


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one simulated classifier run."""

    population: int
    pos_fraction: float
    tpr: float
    tnr: float

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not 0.0 < self.pos_fraction < 1.0:
            raise ValueError(f"pos_fraction must be in (0, 1), got {self.pos_fraction!r}")
        for name in ("tpr", "tnr"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _round_half_up(rate: float, count: int) -> int:
    """round(rate * count), half away from zero, in integers on the decimal
    value of `rate` as written: the float product can land just below a half
    (0.57 * 1750 is 997.4999999999999) or lose a unit past 2**53."""
    p, q = Decimal(str(rate)).as_integer_ratio()
    return (2 * p * count + q) // (2 * q)


def confusion_from_rates(spec: SimulationSpec) -> ConfusionMatrix:
    """Confusion matrix of a simulated classifier.

    actual_positives = round(pos_fraction * population), tp = round(tpr *
    actual_positives), tn = round(tnr * actual_negatives); fn and fp are the
    remainders.  Raises DegeneratePopulationError when rounding leaves no
    actual positives or no actual negatives.
    """
    actual_positives = _round_half_up(spec.pos_fraction, spec.population)
    actual_negatives = spec.population - actual_positives
    if actual_positives == 0 or actual_negatives == 0:
        raise DegeneratePopulationError(
            f"population {spec.population} with pos_fraction {spec.pos_fraction} "
            f"leaves {actual_positives} positives / {actual_negatives} negatives"
        )
    tp = _round_half_up(spec.tpr, actual_positives)
    tn = _round_half_up(spec.tnr, actual_negatives)
    return ConfusionMatrix(tp=tp, fp=actual_negatives - tn, fn=actual_positives - tp, tn=tn)


BALANCE_GRID = make_grid(0.01, 0.99, 0.01)
TPR_GRID = make_grid(0.0, 1.0, 0.01)


def balance_sweep(population: int, tpr: float, tnr: float) -> MetricSeries:
    """Vary the actual-positives fraction over BALANCE_GRID at fixed TPR and TNR."""
    matrices = (confusion_from_rates(SimulationSpec(population, x, tpr, tnr)) for x in BALANCE_GRID)
    return MetricSeries("pos_fraction", BALANCE_GRID, tuple(matrices))


def tpr_sweep(population: int, pos_fraction: float, tnr: float) -> MetricSeries:
    """Vary the true positive rate over TPR_GRID at a fixed population balance and TNR."""
    matrices = (confusion_from_rates(SimulationSpec(population, pos_fraction, x, tnr)) for x in TPR_GRID)
    return MetricSeries("tpr", TPR_GRID, tuple(matrices))


def edge_cases() -> list[tuple[str, ConfusionMatrix]]:
    """The four canonical edge-case matrices C1..C4 (population 10000).

    In each, exactly one of the four conditional rates is driven near zero
    while the others stay moderately close to one.  C2 is the label swap of
    C1, and C4 the label swap of C3.
    """
    c1 = confusion_from_rates(SimulationSpec(10_000, 0.005, 0.9, 0.9))
    c2 = confusion_from_rates(SimulationSpec(10_000, 0.995, 0.9, 0.9))
    c3 = confusion_from_rates(SimulationSpec(10_000, 0.10, 0.05, 0.999))
    c4 = confusion_from_rates(SimulationSpec(10_000, 0.90, 0.999, 0.05))
    return [("C1", c1), ("C2", c2), ("C3", c3), ("C4", c4)]
