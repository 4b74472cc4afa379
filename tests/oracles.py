"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and kept separate from the library:
classification is a per-sample if/elif tally, a scored CSV or a metrics CSV
is parsed one `csv.reader` row at a time, and metric values are computed with
50-digit Decimal arithmetic from the component rates (harmonic-mean route)
instead of the integer closed forms the library uses.  Agreement between the
two routes is the point of the tests.
"""

import csv
from decimal import Decimal, getcontext

getcontext().prec = 50

ONE = Decimal(1)


def classify_counts(pairs, tau):
    """Tally (tp, fp, fn, tn) for `pairs` of (score, is_positive) at `tau`.

    A sample counts as predicted-positive iff score > tau (strict).
    """
    tp = fp = fn = tn = 0
    for score, is_positive in pairs:
        predicted_positive = score > tau
        if predicted_positive and is_positive:
            tp += 1
        elif predicted_positive and not is_positive:
            fp += 1
        elif not predicted_positive and is_positive:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def _ratio(num, den):
    if den == 0:
        return None
    return Decimal(num) / Decimal(den)


def rates(tp, fp, fn, tn):
    """(prec, rec, spec, npv) as Decimals, None where the denominator is 0."""
    return (
        _ratio(tp, tp + fp),
        _ratio(tp, tp + fn),
        _ratio(tn, tn + fp),
        _ratio(tn, tn + fn),
    )


def f1(tp, fp, fn, tn):
    if tp + fp + fn == 0:
        return None
    if tp == 0:
        return Decimal(0)
    prec, rec, _, _ = rates(tp, fp, fn, tn)
    return 2 / (ONE / prec + ONE / rec)


def p4(tp, fp, fn, tn):
    if 4 * tp * tn + (tp + tn) * (fp + fn) == 0:
        return None
    if tp * tn == 0:
        return Decimal(0)
    prec, rec, spec, npv = rates(tp, fp, fn, tn)
    return 4 / (ONE / prec + ONE / rec + ONE / spec + ONE / npv)


def mcc(tp, fp, fn, tn):
    radicand = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if radicand == 0:
        return None
    return Decimal(tp * tn - fp * fn) / Decimal(radicand).sqrt()


def youden(tp, fp, fn, tn):
    _, rec, spec, _ = rates(tp, fp, fn, tn)
    if rec is None or spec is None:
        return None
    return rec + spec - 1


def markedness(tp, fp, fn, tn):
    prec, _, _, npv = rates(tp, fp, fn, tn)
    if prec is None or npv is None:
        return None
    return prec + npv - 1


def scaled(value):
    if value is None:
        return None
    return (value + 1) / 2


def report(tp, fp, fn, tn):
    """Every metric as a Decimal, None where undefined, in the library's
    report order: prec, rec, spec, npv, f1, p4, then mcc, j and mk, each
    followed by its scaled value."""
    corr, j, mk = mcc(tp, fp, fn, tn), youden(tp, fp, fn, tn), markedness(tp, fp, fn, tn)
    return (
        *rates(tp, fp, fn, tn), f1(tp, fp, fn, tn), p4(tp, fp, fn, tn),
        corr, scaled(corr), j, scaled(j), mk, scaled(mk),
    )


def pair_coordinates(counts, y_name):
    """(x, y) = (scaled MCC, F1 or P4) for one confusion matrix, as Decimals."""
    x = scaled(mcc(*counts))
    y = {"f1": f1, "p4": p4}[y_name](*counts)
    return x, y


def best_threshold(taus, pairs, y_name):
    """Exhaustive scan: (tau, distance) minimizing distance to (1, 1).

    Points with an undefined coordinate are skipped; ties go to the
    smallest tau.  Returns None when no point is fully defined.
    """
    best = None
    for tau in taus:
        counts = classify_counts(pairs, tau)
        x, y = pair_coordinates(counts, y_name)
        if x is None or y is None:
            continue
        distance = ((ONE - x) ** 2 + (ONE - y) ** 2).sqrt()
        if best is None or distance < best[1]:
            best = (tau, distance)
    return best


_LABELS = {"1": True, "positive": True, "0": False, "negative": False}


def parse_scored_rows(lines):
    """Parse a `score,label` CSV one `csv.reader` row at a time.

    The first record is the header: its fields, stripped and lower-cased, must
    be `score` and `label`.  Returns ("ok", pairs), the (score, is_positive)
    pair of every non-blank row after it (none if there is no record at all),
    or ("error", line, message) for the first bad row, the header included,
    where line is the physical line the row (or the csv error) starts on: the
    line after the one the reader had read up to before it.
    """
    reader = csv.reader(lines)
    pairs = []
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return "ok", pairs
        except csv.Error as exc:
            return "error", line, str(exc)
        if line == 1:
            if [field.strip().lower() for field in row] != ["score", "label"]:
                return "error", line, f"expected header 'score,label', got {','.join(row)!r}"
            continue
        if not row:
            continue
        if len(row) != 2:
            return "error", line, f"expected 2 fields, got {len(row)}"
        score_text, label_text = row
        try:
            score = float(score_text)
        except ValueError:
            return "error", line, f"bad score {score_text!r}"
        if not 0.0 <= score <= 1.0:
            return "error", line, f"score {score_text!r} outside [0, 1]"
        if label_text.strip().lower() not in _LABELS:
            return "error", line, f"unknown label {label_text!r}"
        pairs.append((score, _LABELS[label_text.strip().lower()]))


def read_metrics_csv(path):
    """(key_column, keys, rows) of a metrics CSV the CLI or `csvio.write_rows` wrote,
    read with `csv.reader`: the leading key column's name and its cells as text, both
    None without one, and per line the four counts as ints then each metric as a
    float, None for `nan`, so that a row compares equal to `csvio.row`'s values."""
    with open(path, newline="") as fh:
        header, *records = csv.reader(fh)
    key_column = header[0] if header[0] != "tp" else None
    keys = None if key_column is None else [record.pop(0) for record in records]
    rows = [
        (*map(int, record[:4]), *(None if text == "nan" else float(text) for text in record[4:]))
        for record in records
    ]
    return key_column, keys, rows
