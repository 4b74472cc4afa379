"""Traced in-process run of the p4metrics CLI, and the per-layer figures from it.

As a child process:

    python3 -I bench/tracer.py SRC TRACE_JSON -- CLI_ARGS...

times the import of `p4metrics.cli` from SRC, wraps each public function in
LAYERS wherever a p4metrics module holds it (so the lookups `cli` and `sweep`
make go through the wrapper), runs `cli.main(CLI_ARGS)` once inside a root
span and writes the spans and counters to TRACE_JSON.  The CLI's own stdout
and stderr pass through unchanged.  Nothing in `src/` is modified.

A function in LAYERS that no longer exists, or is no longer called, is
reported with zero time and zero calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "p4metrics"
ROOT_SPAN = "cli.main"
LAYERS = (
    "confusion.read_scored_csv",
    "confusion.classify_at_threshold",
    "sweep.threshold_sweep",
    "sweep.make_grid",
    "metrics.evaluate_all",
    "sweep.paired_curve",
    "sweep.optimal_threshold",
    "sweep.write_curve_csv",
    "csvio.write_rows",
    "svg.write_svg",
)
# spans whose self time (duration minus their children's) is reported
SELF_TIMED = (ROOT_SPAN, "sweep.threshold_sweep")
CALL_COUNTED = ("confusion.classify_at_threshold", "metrics.evaluate_all", "sweep.write_curve_csv")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_read(args, kwargs, count):
    return lambda result: count("rows", len(result))


def _probe_classify(args, kwargs, count):
    samples = _arg(args, kwargs, 0, "samples")
    return lambda result: count("samples_scanned", len(samples))


def _probe_grid(args, kwargs, count):
    return lambda result: count("grid_size", len(result))


def _probe_paired(args, kwargs, count):
    def after(result):
        count("curve_points", len(result))
        count("defined_points", sum(1 for point in result if point.is_defined))

    return after


def _probe_curve_csv(args, kwargs, count):
    out = _arg(args, kwargs, 1, "out")
    start = out.tell()
    return lambda result: count("curve_bytes", out.tell() - start)


def _probe_rows(args, kwargs, count):
    rows = len(_arg(args, kwargs, 1, "rows"))
    return lambda result: count("rows_written", rows)


def _probe_svg(args, kwargs, count):
    spec, path = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "path")
    points = sum(len(series.points) for series in spec.series)

    def after(result):
        count("svg_points", points)
        count("svg_bytes", os.path.getsize(path))

    return after


# Each probe looks at one call's arguments before it runs and returns a
# function that records counters from its result.
PROBES = {
    "confusion.read_scored_csv": _probe_read,
    "confusion.classify_at_threshold": _probe_classify,
    "sweep.make_grid": _probe_grid,
    "sweep.paired_curve": _probe_paired,
    "sweep.write_curve_csv": _probe_curve_csv,
    "csvio.write_rows": _probe_rows,
    "svg.write_svg": _probe_svg,
}
# a probe that meets an argument or result of another shape records nothing
PROBE_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError)


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def call(self, name, fn, args, kwargs):
        try:
            after = PROBES[name](args, kwargs, self.count) if name in PROBES else None
        except PROBE_ERRORS:
            after = None
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)
        if after is not None:
            try:
                after(result)
            except PROBE_ERRORS:
                pass
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS, package: str = PACKAGE) -> list[str]:
        """Wrap each layer function at every module attribute bound to it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        installed = []
        for layer in layers:
            module_name, _, func_name = layer.partition(".")
            target = getattr(sys.modules.get(f"{package}.{module_name}"), func_name, None)
            if not callable(target):
                continue
            wrapper = self.wrap(layer, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attr, wrapper)
            installed.append(layer)
        return installed


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer figures of one traced invocation, from its spans and counters."""
    spans = record["spans"]
    durations = [end - start for _, start, end, _ in spans]
    inside_children = [0.0] * len(spans)
    for duration, (_, _, _, parent) in zip(durations, spans):
        if parent >= 0:
            inside_children[parent] += duration
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, *_), duration, covered in zip(spans, durations, inside_children):
        total[name] += duration
        own[name] += duration - covered
        calls[name] += 1
    counts = defaultdict(int, record["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {"import.s": record["import_s"]}
    for name in (ROOT_SPAN, *LAYERS):
        metrics[f"{name}.s"] = total[name]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = own[name]
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = calls[name]
    metrics.update({
        "confusion.rows_per_s": ratio(counts["rows"], total["confusion.read_scored_csv"]),
        "confusion.samples_scanned": counts["samples_scanned"],
        "sweep.grid_size": counts["grid_size"],
        "metrics.evaluate_all.us_per_call": 1e6 * ratio(total["metrics.evaluate_all"], calls["metrics.evaluate_all"]),
        "sweep.defined_ratio": ratio(counts["defined_points"], counts["curve_points"]),
        "sweep.curve_bytes": counts["curve_bytes"],
        "csvio.rows_written": counts["rows_written"],
        "svg.points": counts["svg_points"],
        "svg.bytes": counts["svg_bytes"],
    })
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: tracer.py SRC TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    src, trace_path, cli_args = Path(argv[1]).resolve(), Path(argv[2]), argv[4:]
    sys.path.insert(0, str(src))
    start = perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = perf_counter() - start
    location = Path(sys.modules[PACKAGE].__file__).resolve()
    if not location.is_relative_to(src):
        print(f"tracer: {PACKAGE} imported from {location}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    code = tracer.call(ROOT_SPAN, cli.main, (cli_args,), {})
    sys.stdout.flush()
    record = {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}
    trace_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
