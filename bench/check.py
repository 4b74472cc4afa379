"""Output checker for the benchmark; it never imports p4metrics.

The reference confusion matrix at a threshold comes from the checker's own
reading of the input file: sort the positive and the negative scores once,
then `bisect_right` at tau counts the samples with `score <= tau`, which is
the strict `score > tau` rule for calling a sample positive.  F1, P4 and MCC
are the integer closed forms from the README, with nan where undefined.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from bisect import bisect_right
from pathlib import Path

COUNT_COLUMNS = ("tp", "fp", "fn", "tn")
CLOSED_FORM_COLUMNS = ("f1", "p4", "mcc")
GRID_TOLERANCE = 1e-9
# the summary line prints the distance with 6 decimals
DISTANCE_TOLERANCE = 5e-7 + 1e-12
OPTIMUM_LINE = re.compile(r"optimal tau \((mcc-f1|mcc-p4)\) = (\S+) \(distance (\S+)\)")


class CheckError(Exception):
    """An output that disagrees with the reference."""


def closed_forms(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    """F1, P4 and MCC from exact counts; nan where a denominator is zero."""
    f1_den = 2 * tp + fp + fn
    p4_num = 4 * tp * tn
    p4_den = p4_num + (tp + tn) * (fp + fn)
    radicand = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return {
        "f1": 2 * tp / f1_den if f1_den else math.nan,
        "p4": p4_num / p4_den if p4_den else math.nan,
        "mcc": (tp * tn - fp * fn) / math.sqrt(radicand) if radicand else math.nan,
    }


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class Reference:
    """Sorted positive and negative scores of one input file."""

    def __init__(self, positive_scores, negative_scores):
        self.pos = sorted(positive_scores)
        self.neg = sorted(negative_scores)

    @classmethod
    def from_csv(cls, path: Path) -> "Reference":
        pos, neg = [], []
        with open(path) as fh:
            if fh.readline().strip().lower() != "score,label":
                raise CheckError(f"{path}: not a score,label file")
            for line in fh:
                score, label = line.split(",")
                (pos if label.strip() == "1" else neg).append(float(score))
        return cls(pos, neg)

    @property
    def n(self) -> int:
        return len(self.pos) + len(self.neg)

    def distinct_scores(self) -> int:
        return len(set(self.pos).union(self.neg))

    def counts(self, tau: float) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn) when a sample is positive iff score > tau."""
        fn = bisect_right(self.pos, tau)
        tn = bisect_right(self.neg, tau)
        return len(self.pos) - fn, len(self.neg) - tn, fn, tn


def expected_grid_size(delta: float, tau0: float = 0.0, tau_n: float = 1.0) -> int:
    return round((tau_n - tau0) / delta) + 1


def check_grid(taus: list[float], delta: float, tau0: float = 0.0, tau_n: float = 1.0) -> None:
    size = expected_grid_size(delta, tau0, tau_n)
    if len(taus) != size:
        raise CheckError(f"grid has {len(taus)} taus, expected {size}")
    for i, tau in enumerate(taus):
        if i and not taus[i - 1] < tau:
            raise CheckError(f"grid not strictly increasing at tau {tau!r}")
        if abs(tau - (tau0 + i * delta)) > GRID_TOLERANCE:
            raise CheckError(f"grid tau {i} is {tau!r}, expected {tau0 + i * delta!r}")


def _check_metrics(where: str, got: dict[str, float], counts: tuple[int, int, int, int]) -> dict:
    want = closed_forms(*counts)
    for name, value in want.items():
        if name in got and not _same(got[name], value):
            raise CheckError(f"{where}: {name} is {got[name]!r}, closed form gives {value!r}")
    return want


def read_curve_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckError(f"{path.name}: no rows")
    missing = {"tau", *COUNT_COLUMNS, *CLOSED_FORM_COLUMNS} - set(rows[0])
    if missing:
        raise CheckError(f"{path.name}: missing columns {sorted(missing)}")
    return rows


def check_curve_csv(path: Path, ref: Reference, delta: float) -> list[tuple[float, dict[str, float]]]:
    """Check every row of one curve CSV; return its (tau, closed forms) rows."""
    checked = []
    for line_no, row in enumerate(read_curve_csv(path), start=2):
        where = f"{path.name}:{line_no}"
        tau = float(row["tau"])
        counts = tuple(int(row[c]) for c in COUNT_COLUMNS)
        want = ref.counts(tau)
        if counts != want:
            raise CheckError(f"{where}: counts {counts} at tau {row['tau']}, reference {want}")
        got = {name: float(row[name]) for name in CLOSED_FORM_COLUMNS}
        if "mcc_scaled" in row:
            got["mcc_scaled"] = float(row["mcc_scaled"])
        forms = _check_metrics(where, got, counts)
        if "mcc_scaled" in got and not _same(got["mcc_scaled"], (forms["mcc"] + 1) / 2):
            raise CheckError(f"{where}: mcc_scaled {got['mcc_scaled']!r} is not (mcc + 1) / 2")
        checked.append((tau, forms))
    check_grid([tau for tau, _ in checked], delta)
    return checked


def optimum(rows: list[tuple[float, dict[str, float]]], y_metric: str) -> tuple[float, float]:
    """(distance, tau) nearest (1, 1) over fully defined points; ties go to the smallest tau."""
    best = None
    for tau, forms in rows:
        x, y = (forms["mcc"] + 1) / 2, forms[y_metric]
        if math.isnan(x) or math.isnan(y):
            continue
        candidate = (math.hypot(1.0 - x, 1.0 - y), tau)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise CheckError(f"no fully defined mcc-{y_metric} point")
    return best


def check_optima(stdout: str, rows: list[tuple[float, dict[str, float]]], pairs: tuple[str, ...]) -> None:
    printed = {m.group(1): (m.group(2), m.group(3)) for m in OPTIMUM_LINE.finditer(stdout)}
    taus = [tau for tau, _ in rows]
    for pair in pairs:
        if pair not in printed:
            raise CheckError(f"no optimum printed for {pair}")
        tau_text, distance_text = printed[pair]
        try:
            printed_tau, printed_distance = float(tau_text), float(distance_text)
        except ValueError:
            raise CheckError(f"{pair}: unreadable optimum {tau_text!r}, {distance_text!r}") from None
        distance, tau = optimum(rows, pair.removeprefix("mcc-"))
        nearest = min(taus, key=lambda t: abs(t - printed_tau))
        if nearest != tau:
            raise CheckError(f"{pair}: printed tau {tau_text}, argmin is {tau!r}")
        if abs(printed_distance - distance) > DISTANCE_TOLERANCE:
            raise CheckError(f"{pair}: printed distance {distance_text}, argmin distance {distance!r}")


def check_svg(path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        raise CheckError(f"{path.name}: not readable XML: {exc}") from None
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise CheckError(f"{path.name}: root element is {root.tag!r}, not svg")


def check_sweep(stdout: str, out_csv: Path, ref: Reference, delta: float) -> None:
    """Check a `sweep --pair both --out OUT --svg` run: curve CSVs, optima and chart."""
    curve_files = sorted(out_csv.parent.glob(f"{out_csv.stem}*.csv"))
    if not curve_files:
        raise CheckError(f"no curve CSV next to {out_csv.name}")
    rows = None
    for path in curve_files:
        rows = check_curve_csv(path, ref, delta)
    check_optima(stdout, rows, ("mcc-f1", "mcc-p4"))
    check_svg(out_csv.with_suffix(".svg"))


def check_eval_json(stdout: str, ref: Reference, tau: float) -> None:
    """Check `eval --format json` output against the reference at tau."""
    try:
        record = json.loads(stdout)
        counts = tuple(record["counts"][c] for c in COUNT_COLUMNS)
        metrics = {name: record["metrics"][name] for name in CLOSED_FORM_COLUMNS}
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"eval output is not the documented JSON record: {exc!r}") from None
    want = ref.counts(tau)
    if counts != want:
        raise CheckError(f"eval counts {counts}, reference {want}")
    got = {name: math.nan if value is None else float(value) for name, value in metrics.items()}
    _check_metrics("eval", got, counts)
