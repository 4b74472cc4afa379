"""P4 and companion binary-classifier metrics over exact confusion matrices.

The package computes the P4 score next to F1, MCC, Youden J, and markedness
(raw and unit-scaled) from integer confusion counts, reconstructs the
canonical edge cases and simulated parameter sweeps, and sweeps probability
thresholds over scored predictions to locate optimal operating points on the
MCC-F1 and MCC-P4 planes.
"""

from .confusion import (
    ConfusionMatrix,
    Label,
    ScoredSample,
    classify_at_threshold,
    from_counts,
    parse_scored_csv,
    read_scored_csv,
    swap_labels,
)
from .errors import (
    BadGridError,
    CsvFormatError,
    DegeneratePopulationError,
    EmptyInputError,
    EmptyMatrixError,
    NegativeCountError,
    NoDefinedPointsError,
    P4MetricsError,
    RangeMismatchError,
    SampleParseError,
)
from .metrics import (
    SIGNED_RANGE,
    UNIT_RANGE,
    BasicRates,
    MetricReport,
    MetricValue,
    basic_rates,
    evaluate_all,
    f1,
    markedness,
    mcc,
    p4,
    scale_to_unit,
    youden,
)
from .simulate import (
    SimulationSpec,
    balance_sweep,
    confusion_from_rates,
    edge_cases,
    tpr_sweep,
)
from .sweep import (
    MetricSeries,
    OptimalThreshold,
    PairedCurvePoint,
    SeriesPoint,
    optimal_threshold,
    paired_curve,
    read_curve_csv,
    threshold_sweep,
    write_curve_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BadGridError",
    "BasicRates",
    "ConfusionMatrix",
    "CsvFormatError",
    "DegeneratePopulationError",
    "EmptyInputError",
    "EmptyMatrixError",
    "Label",
    "MetricReport",
    "MetricSeries",
    "MetricValue",
    "NegativeCountError",
    "NoDefinedPointsError",
    "OptimalThreshold",
    "P4MetricsError",
    "PairedCurvePoint",
    "RangeMismatchError",
    "SIGNED_RANGE",
    "SampleParseError",
    "ScoredSample",
    "SeriesPoint",
    "SimulationSpec",
    "UNIT_RANGE",
    "balance_sweep",
    "basic_rates",
    "classify_at_threshold",
    "confusion_from_rates",
    "edge_cases",
    "evaluate_all",
    "f1",
    "from_counts",
    "markedness",
    "mcc",
    "optimal_threshold",
    "p4",
    "paired_curve",
    "parse_scored_csv",
    "read_curve_csv",
    "read_scored_csv",
    "scale_to_unit",
    "swap_labels",
    "threshold_sweep",
    "tpr_sweep",
    "write_curve_csv",
    "youden",
]
