"""Command-line interface: eval, cases, simulate, sweep.

Human tables print 4 decimal places with `n/a` for undefined values; csv and
json print full-precision numbers with `nan`.  All errors exit with status 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, TextIO

from . import csvio, simulate, sweep
from .confusion import ConfusionMatrix, _parse_number, classify_at_threshold, read_scored_csv
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


def _emit(write: Callable[[TextIO], None], out: str | None) -> None:
    """Call `write` on stdout, or else on the `out` file as it is written; a
    failed write removes `out` if it is a regular file, and a failure to open it removes nothing."""
    if out is None:
        return write(sys.stdout)
    stream = open(out, "w")
    try:
        with stream:
            write(stream)
    except BaseException:
        if Path(out).is_file():  # never a pipe or a device
            Path(out).unlink(missing_ok=True)
        raise


def cmd_eval(args) -> None:
    if not 0.0 <= args.tau <= 1.0:  # classify_at_threshold's check, made before the source is read
        raise ValueError(f"tau must be in [0, 1], got {args.tau!r}")
    if args.counts is not None:
        fields = args.counts.split(",")
        if len(fields) != 4:
            raise ValueError(f"--counts needs 4 comma-separated integers, got {args.counts!r}")
        matrix = ConfusionMatrix(*(_parse_number(field, int) for field in fields))
    else:
        samples = read_scored_csv(args.file)
        matrix = classify_at_threshold(samples, args.tau)
    row = csvio.row(matrix)
    if args.format == "table":
        _emit(lambda stream: print(_counts_line(row), "", *_table_rows(row), sep="\n", file=stream), args.out)
    elif args.format == "csv":
        _emit(lambda stream: csvio.write_rows(stream, [(("",), row)], None), args.out)
    else:
        import json  # only --format json needs it, so the CLI starts without it
        _emit(lambda stream: print(json.dumps(_json_record(row), indent=2), file=stream), args.out)


def cmd_cases(args) -> None:
    rows = [(name, csvio.row(matrix)) for name, matrix in simulate.edge_cases()]
    if args.format == "table":
        blocks = ["\n".join([f"{name}  {_counts_line(row)}"] + _table_rows(row, "  ")) for name, row in rows]
        _emit(lambda stream: print(*blocks, sep="\n\n", file=stream), args.out)
    elif args.format == "csv":
        _emit(lambda stream: csvio.write_rows(stream, [((name,), row) for name, row in rows], "case"), args.out)
    else:
        import json  # only --format json needs it, so the CLI starts without it
        records = [{"case": name, **_json_record(row)} for name, row in rows]
        _emit(lambda stream: print(json.dumps(records, indent=2), file=stream), args.out)


def _chart_points(series: sweep.MetricSeries, y: str) -> tuple[tuple[float, float], ...]:
    """(key, y) per key of a series, with y a metric and nan for Undefined."""
    y_at = csvio.COLUMNS.index(y)  # looked up once per curve
    return tuple((key, math.nan if row[y_at] is None else row[y_at])
                 for start, end, row in series.runs for key in series.keys[start:end])


def _emit_series(write_csv: Callable[[TextIO], None], curves: Callable[[], list], args, *labels: str) -> None:
    """Emit a series CSV by `write_csv`; with --svg, chart `curves()` under the title and axis `labels` beside --out."""
    def write(stream: TextIO) -> None:
        write_csv(stream)
        if args.svg:  # before --out is closed, so that a failed chart takes it along
            from . import svg  # only --svg needs it, so the CLI starts without it
            svg.write_svg(Path(args.out).with_suffix(".svg"), *labels, curves())
    _emit(write, args.out)


def cmd_simulate(args) -> None:
    if args.kind == "balance":
        series = simulate.balance_sweep(args.n, args.tpr, args.tnr)
        title = f"metrics vs population balance (n={args.n}, tpr={args.tpr}, tnr={args.tnr})"
    else:
        series = simulate.tpr_sweep(args.n, args.pos, args.tnr)
        title = f"metrics vs true positive rate (n={args.n}, pos={args.pos}, tnr={args.tnr})"
    names = ("p4", "f1", "mcc_scaled", "j_scaled", "mk_scaled")
    _emit_series(lambda stream: sweep.write_curve_csv(series, stream),
                 lambda: [(DISPLAY_NAMES[name], _chart_points(series, name)) for name in names],
                 args, title, series.key_column, "metric value")


def cmd_sweep(args) -> None:
    samples = read_scored_csv(args.file)
    taus = sweep.make_grid(0.0, 1.0, args.delta)
    pairs = list(sweep.PAIR_METRICS) if args.pair == "both" else [args.pair.removeprefix("mcc-")]
    x_at, y_ats = csvio.COLUMNS.index("mcc_scaled"), [csvio.COLUMNS.index(y_metric) for y_metric in pairs]
    best, curves = [None] * len(pairs), [(f"MCC'-{y_metric.upper()}", []) for y_metric in pairs]
    def walk():  # each run's keys and row, once the row has updated each pair's nearest point and, with --svg, curve
        for start, end, counts in samples.runs_at(taus):
            row = csvio.row(counts)
            for i, (x, y) in enumerate((row[x_at], row[y_at]) for y_at in y_ats):
                best[i] = sweep._nearer(best[i], taus[start], x, y)
                if args.svg:
                    curves[i][1].append((math.nan if x is None else x, math.nan if y is None else y))
            yield map(repr, taus[start:end]), row
    runs, held = walk(), []
    while None in best:  # errors come before output, so hold the runs until every pair has a defined point
        held.append(next(runs, None) or sweep._optimum(None, pairs[best.index(None)]))  # a walk that ends first raises
    _emit_series(lambda stream: csvio.write_rows(stream, chain(held, runs), "tau"), lambda: curves,
                 args, f"paired metric curves ({Path(args.file).name})", "MCC'", "F1 / P4")
    for optimum in map(sweep._optimum, best, pairs):
        print(f"optimal tau ({optimum.metric_pair}) = {optimum.tau:g} (distance {optimum.distance:.6f})")


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
        # the flag each kind needs, and the one it refuses
        needs, refuses = {"balance": ("tpr", "pos"), "tpr": ("pos", "tpr")}[args.kind]
        if getattr(args, needs) is None:
            parser.error(f"simulate {args.kind} needs --{needs}")
        if getattr(args, refuses) is not None:
            parser.error(f"simulate {args.kind} takes no --{refuses}")
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
