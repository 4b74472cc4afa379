"""Command-line interface: eval, cases, simulate, sweep.

Human tables print 4 decimal places with `n/a` for undefined values; csv and
json print full-precision numbers with `nan`.  All errors exit with status 2.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, TextIO

from . import csvio, simulate, svg, sweep
from .confusion import ConfusionMatrix, classify_at_threshold, read_scored_csv
from .errors import P4MetricsError
from .metrics import DISPLAY_NAMES, METRIC_NAMES

FORMATS = ("table", "csv", "json")


def _counts_line(row: tuple) -> str:
    tp, fp, fn, tn = row[:4]
    return f"tp={tp}  fp={fp}  fn={fn}  tn={tn}  (population {tp + fp + fn + tn})"


def _table_rows(row: tuple, indent: str = "") -> list[str]:
    return [
        f"{indent}{DISPLAY_NAMES[name]:<5} {'n/a' if value is None else f'{value:.4f}'}"
        for name, value in zip(METRIC_NAMES, row[4:])
    ]


def _json_record(row: tuple) -> dict:
    return {
        "counts": dict(zip(csvio.COUNT_COLUMNS, row[:4])),
        "metrics": {name: math.nan if value is None else value for name, value in zip(METRIC_NAMES, row[4:])},
    }


def _captured(write: Callable[[TextIO], None]) -> str:
    """The text `write` writes to the stream it is given."""
    buffer = io.StringIO()
    write(buffer)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    """Write `text`, ending in one newline, to the `out` file or else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_counts(text: str) -> ConfusionMatrix:
    fields = text.split(",")
    if len(fields) != 4:
        raise ValueError(f"--counts needs 4 comma-separated integers, got {text!r}")
    tp, fp, fn, tn = (int(field) for field in fields)
    return ConfusionMatrix(tp, fp, fn, tn)


def cmd_eval(args) -> None:
    if args.counts is not None:
        matrix = _parse_counts(args.counts)
    else:
        samples = read_scored_csv(args.file)
        matrix = classify_at_threshold(samples, args.tau)
    row = csvio.row(matrix)
    if args.format == "table":
        lines = [_counts_line(row), ""] + _table_rows(row)
        _emit("\n".join(lines), args.out)
    elif args.format == "csv":
        _emit(_captured(lambda buffer: csvio.write_rows(buffer, [("", row)], None)), args.out)
    else:
        _emit(json.dumps(_json_record(row), indent=2), args.out)


def cmd_cases(args) -> None:
    rows = [(name, csvio.row(matrix)) for name, matrix in simulate.edge_cases()]
    if args.format == "table":
        blocks = ["\n".join([f"{name}  {_counts_line(row)}"] + _table_rows(row, "  ")) for name, row in rows]
        _emit("\n\n".join(blocks), args.out)
    elif args.format == "csv":
        _emit(_captured(lambda buffer: csvio.write_rows(buffer, rows, "case")), args.out)
    else:
        records = [{"case": name, **_json_record(row)} for name, row in rows]
        _emit(json.dumps(records, indent=2), args.out)


def _chart_points(series: sweep.MetricSeries, x: str | None, y: str) -> tuple[tuple[float, float], ...]:
    """(x, y) of one chart curve, with y a metric and nan for Undefined: one point
    per key when x is None, standing for the key, else one per run."""
    def cell(row: tuple, name: str) -> float:
        value = row[csvio.COLUMNS.index(name)]
        return math.nan if value is None else value
    if x is None:
        return tuple((key, cell(row, y)) for start, end, row in series.runs for key in series.keys[start:end])
    return tuple((cell(row, x), cell(row, y)) for _, _, row in series.runs)


def _emit_series(series: sweep.MetricSeries, args, lines, title: str, x_label: str, y_label: str) -> None:
    """Emit the series CSV; with --svg, chart each (name, x, y) of `lines` beside --out
    (see `_chart_points`).  A failed chart takes --out with it."""
    _emit(_captured(lambda buffer: sweep.write_curve_csv(series, buffer)), args.out)
    if args.svg:
        try:
            curves = [(name, _chart_points(series, x, y)) for name, x, y in lines]
            svg.write_svg(Path(args.out).with_suffix(".svg"), title, x_label, y_label, curves)
        except BaseException:
            Path(args.out).unlink(missing_ok=True)
            raise


def cmd_simulate(args) -> None:
    if args.kind == "balance":
        series = simulate.balance_sweep(args.n, args.tpr, args.tnr)
        title = f"metrics vs population balance (n={args.n}, tpr={args.tpr}, tnr={args.tnr})"
    else:
        series = simulate.tpr_sweep(args.n, args.pos, args.tnr)
        title = f"metrics vs true positive rate (n={args.n}, pos={args.pos}, tnr={args.tnr})"
    names = ("p4", "f1", "mcc_scaled", "j_scaled", "mk_scaled")
    lines = [(DISPLAY_NAMES[name], None, name) for name in names]
    _emit_series(series, args, lines, title, series.key_column, "metric value")


def cmd_sweep(args) -> None:
    samples = read_scored_csv(args.file)
    curve = sweep.threshold_sweep(samples, delta=args.delta)
    pairs = list(sweep.PAIR_METRICS) if args.pair == "both" else [args.pair.removeprefix("mcc-")]
    optima = [sweep.optimal_threshold(curve, y_metric) for y_metric in pairs]
    lines = [(f"MCC'-{y_metric.upper()}", "mcc_scaled", y_metric) for y_metric in pairs]
    _emit_series(curve, args, lines, f"paired metric curves ({Path(args.file).name})", "MCC'", "F1 / P4")
    for best in optima:
        print(f"optimal tau ({best.metric_pair}) = {best.tau:g} (distance {best.distance:.6f})")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="p4metrics",
        description="P4 and companion binary-classifier metrics over confusion matrices",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="evaluate one confusion matrix or scored file")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", metavar="TP,FP,FN,TN", help="four comma-separated counts")
    source.add_argument("--file", metavar="PATH", help="scored-sample CSV (score,label)")
    p_eval.add_argument("--tau", type=float, default=0.5, help="threshold for --file input (default 0.5)")
    p_eval.add_argument("--format", choices=FORMATS, default="table")
    p_eval.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p_eval.set_defaults(handler=cmd_eval)

    p_cases = commands.add_parser("cases", help="show the four canonical edge-case matrices")
    p_cases.add_argument("--format", choices=FORMATS, default="table")
    p_cases.add_argument("--out", metavar="PATH")
    p_cases.set_defaults(handler=cmd_cases)

    p_sim = commands.add_parser("simulate", help="parameter sweeps of a simulated classifier")
    p_sim.add_argument("kind", choices=("balance", "tpr"))
    p_sim.add_argument("--n", type=int, default=10_000, help="population size (default 10000)")
    p_sim.add_argument("--tpr", type=float, help="true positive rate (balance sweeps)")
    p_sim.add_argument("--tnr", type=float, required=True, help="true negative rate")
    p_sim.add_argument("--pos", type=float, help="actual-positives fraction (tpr sweeps)")
    p_sim.add_argument("--out", metavar="PATH", help="series CSV path (default stdout)")
    p_sim.add_argument("--svg", action="store_true", help="also write a line chart next to --out")
    p_sim.set_defaults(handler=cmd_simulate)

    p_sweep = commands.add_parser("sweep", help="threshold sweep over a scored-sample CSV")
    p_sweep.add_argument("--file", metavar="PATH", required=True)
    p_sweep.add_argument("--delta", type=float, default=0.01, help="threshold step (default 0.01)")
    p_sweep.add_argument("--pair", choices=("mcc-f1", "mcc-p4", "both"), default="both")
    p_sweep.add_argument("--out", metavar="PATH", help="curve CSV path (default stdout)")
    p_sweep.add_argument("--svg", action="store_true", help="also write the paired-curve chart")
    p_sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        if args.kind == "balance" and args.tpr is None:
            parser.error("simulate balance needs --tpr")
        if args.kind == "tpr" and args.pos is None:
            parser.error("simulate tpr needs --pos")
    try:
        # the chart goes beside --out, so --out must exist and must not be the chart
        if getattr(args, "svg", False) and (args.out is None or Path(args.out).suffix.lower() == ".svg"):
            raise ValueError("--svg needs an --out path not ending in .svg, to write the chart beside it")
        args.handler(args)
    except (P4MetricsError, ValueError, OverflowError, OSError) as exc:
        print(f"p4metrics: error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    raise SystemExit(main())
