"""End-to-end and per-layer benchmark of the p4metrics CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the code in that
checkout's `src/`, never an installed copy.  Each run generates its input
from the seed (generation is timed but kept out of every metric), checks one
warm-up invocation, then runs a closed loop with one client for S seconds:
one `p4metrics` child process at a time, each started only after the last
exited, every output checked by `check.py`.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json: the
fastest invocation's wall time and CPU time, input samples per second at that
wall time, the median peak RSS of an invocation (times and RSS from
`os.wait4`), and `setup_s`, the median wall time of a child that only imports
`p4metrics.cli` and builds its parser.  The lines before the result also give
the median and quartiles of the invocation times.  `--trace 1` reports the
per-layer metrics instead: a few untraced invocations and set-up children
give the baseline, then `tracer.py` runs the CLI in-process with timing spans
around the public function of each layer.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the same
figures for people.  An invocation fails on a non-zero exit, any stderr
output or a failed output check.  The run exits 2 without a result if it
cannot set up, for example when `src/p4metrics` is missing.

Self-tests: `python3 bench/test_bench.py`.  Ten seeds at once, with
quartile spreads: `python3 bench/repeat.py --workload NAME --seeds 1-10`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

EVAL_TAU = 0.5
# Set-up children: one takes only ~0.1 s and is jittery, so a run starts
# SETUP_PER_INVOCATION of them after each invocation, for at least
# SETUP_CHILDREN in all; spread over the whole run, their median does not
# hang on one burst of load from other tenants of the host.
SETUP_CHILDREN = 21
SETUP_PER_INVOCATION = 2
TRACE_SETUP_CHILDREN = 7
# untraced invocations in a traced run, the baseline for overhead and RSS
TRACE_BASELINE_INVOCATIONS = 3
MIN_INVOCATIONS = 3
# stop at MIN_INVOCATIONS only once this much time is spent, so a slow
# program still ends the run well inside its time limit
MIN_INVOCATIONS_CUTOFF_S = 100.0


@dataclass(frozen=True)
class Workload:
    """One generated input and the CLI command run on it.

    `delta` None means `eval --tau 0.5 --format json`; otherwise the command
    is `sweep --pair both --out ... --svg` with that threshold step.
    """

    n: int
    pos_share: float
    decimals: int
    delta: float | None

    def cli_args(self, input_csv: Path, out_csv: Path) -> list[str]:
        if self.delta is None:
            return ["eval", "--file", str(input_csv), "--tau", repr(EVAL_TAU), "--format", "json"]
        return ["sweep", "--file", str(input_csv), "--delta", repr(self.delta), "--pair", "both",
                "--out", str(out_csv), "--svg"]

    def grid_size(self) -> int:
        return 1 if self.delta is None else check.expected_grid_size(self.delta)

    def check(self, stdout: str, out_csv: Path, ref: check.Reference) -> None:
        if self.delta is None:
            check.check_eval_json(stdout, ref, EVAL_TAU)
        else:
            check.check_sweep(stdout, out_csv, ref, self.delta)


# Why each workload exists is recorded in BENCHMARK.json.  Between them they
# give each planned speed-up one workload that exercises it and one that
# bypasses it: parsing is ~90% of eval-large and ~0 of sweep-fine, and the
# per-tau rescan is ~60% of sweep-fine and one call on eval-large.
WORKLOADS = {
    "eval-large": Workload(n=1_000_000, pos_share=0.1, decimals=3, delta=None),
    "sweep-fine": Workload(n=500, pos_share=0.1, decimals=4, delta=0.0001),
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def launcher(code: str) -> list[str]:
    """A child interpreter that imports p4metrics from this checkout's src/ only."""
    return [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"]


CLI = launcher("from p4metrics.cli import run; run()")
SETUP = launcher("from p4metrics.cli import build_parser; build_parser()")
PROBE = launcher("import p4metrics; print(p4metrics.__file__)")
TRACED = [sys.executable, "-I", str(BENCH / "tracer.py"), str(SRC)]


def check_location(module_file: str) -> None:
    """Refuse a p4metrics imported from anywhere but this checkout's src/."""
    location = Path(module_file).resolve()
    if not location.is_relative_to(SRC.resolve()):
        raise SetupError(f"p4metrics resolves to {location}, not under {SRC}")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Spawner:
    """The `spawner.py` process that starts every child of one run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str], work: Path) -> Child:
        """Run one child to exit and collect its output and usage."""
        out, err = work / "stdout", work / "stderr"
        request = {"argv": argv, "cwd": str(work), "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("spawner exited")
        return Child(
            **json.loads(reply),
            stdout=out.read_bytes().decode(errors="replace"),
            stderr=err.read_bytes().decode(errors="replace"),
        )

    def kill(self) -> None:
        """Stop the spawner and any child it is running."""
        os.killpg(self.proc.pid, signal.SIGKILL)

    def close(self) -> None:
        """Let the spawner finish its child and exit; kill its session if it does not."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def median(values: list[float]) -> float:
    return statistics.median(values)


class Bench:
    def __init__(self, name: str, seed: int, work: Path, spawner: Spawner):
        self.spawner = spawner
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.input_csv = work / "scored.csv"
        self.out_dir = work / "out"
        self.out_csv = self.out_dir / "curve.csv"
        self.cli_args = self.workload.cli_args(self.input_csv, self.out_csv)
        self.attempted = 0
        self.failures: list[str] = []

    def prepare(self) -> None:
        probe = self.spawner.run(PROBE, self.work)
        if probe.code != 0:
            raise SetupError(f"cannot import p4metrics from {SRC}: {probe.stderr.strip()}")
        check_location(probe.stdout.strip())
        w = self.workload
        start = perf_counter()
        gen.write_scored_csv(self.input_csv, self.seed, w.n, w.pos_share, w.decimals)
        gen_s = perf_counter() - start
        self.ref = check.Reference.from_csv(self.input_csv)
        self.out_dir.mkdir()
        print(
            f"input: n={self.ref.n} positives={len(self.ref.pos)} "
            f"(share {len(self.ref.pos) / self.ref.n:.4f}) distinct_scores={self.ref.distinct_scores()} "
            f"grid_size={w.grid_size()}; generated in {gen_s:.3f} s, not measured"
        )
        print("command: p4metrics " + " ".join(self.cli_args))
        # warm-up: fills the bytecode and file caches; checked, not timed
        self.invoke(CLI + self.cli_args)

    def invoke(self, argv: list[str]) -> Child:
        """One checked invocation of the CLI (plain or traced)."""
        for path in self.out_dir.iterdir():
            path.unlink()
        child = self.spawner.run(argv, self.work)
        self.attempted += 1
        failure = None
        if child.code != 0:
            failure = f"exit status {child.code}: {child.stderr.strip()[-500:]}"
        elif child.stderr:
            failure = f"stderr output: {child.stderr.strip()[-500:]}"
        else:
            try:
                self.workload.check(child.stdout, self.out_csv, self.ref)
            except (check.CheckError, OSError, ValueError) as exc:
                failure = f"output check: {exc}"
        if failure is not None:
            self.failures.append(failure)
            print(f"invocation {self.attempted} failed: {failure}", file=sys.stderr)
        return child

    def setup_children(self, count: int) -> list[Child]:
        children = [self.spawner.run(SETUP, self.work) for _ in range(count)]
        for child in children:
            if child.code != 0 or child.stderr:
                raise SetupError(f"set-up child failed: {child.stderr.strip()}")
        return children

    def loop(self, deadline: float, run_start: float, step) -> list:
        """Call `step` until the deadline, and at least MIN_INVOCATIONS times."""
        results = []
        while perf_counter() < deadline or (
            len(results) < MIN_INVOCATIONS and perf_counter() - run_start < MIN_INVOCATIONS_CUTOFF_S
        ):
            results.append(step())
        return results

    def end_to_end(self, seconds: float, run_start: float) -> dict[str, float]:
        deadline = perf_counter() + seconds
        setup = []

        def step():
            child = self.invoke(CLI + self.cli_args)
            setup.extend(self.setup_children(SETUP_PER_INVOCATION))
            return child

        runs = self.loop(deadline, run_start, step)
        setup.extend(self.setup_children(SETUP_CHILDREN - len(setup)))
        walls = [c.wall_s for c in runs]
        cpus = [c.cpu_s for c in runs]
        for name, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", [c.wall_s for c in setup])):
            q1, mid, q3 = quartiles(values)
            print(f"{name}: median {mid:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f}) over {len(values)} children")
        print("wall_s per invocation: " + " ".join(f"{w:.4f}" for w in walls))
        # Other tenants of a shared host slow whole stretches of a run; the
        # fastest invocation is the one they disturbed least, so the run
        # reports minima for the invocation times and the median for set-up.
        return {
            "wall_min_s": min(walls),
            "cpu_min_s": min(cpus),
            "samples_per_s": self.workload.n / min(walls),
            "peak_rss_mb": median([c.rss_mb for c in runs]),
            "setup_s": median([c.wall_s for c in setup]),
        }

    def traced(self, trace_json: Path):
        trace_json.unlink(missing_ok=True)
        child = self.invoke(TRACED + [str(trace_json), "--"] + self.cli_args)
        if child.code != 0 or not trace_json.exists():
            return None
        layers = tracer.layer_metrics(json.loads(trace_json.read_text()))
        layers["cli.stdout_bytes"] = len(child.stdout.encode())
        return layers

    def per_layer(self, seconds: float, run_start: float) -> dict[str, float]:
        deadline = perf_counter() + seconds
        setup = self.setup_children(TRACE_SETUP_CHILDREN)
        plain = [self.invoke(CLI + self.cli_args) for _ in range(TRACE_BASELINE_INVOCATIONS)]
        trace_json = self.work / "trace.json"
        traced = [t for t in self.loop(deadline, run_start, lambda: self.traced(trace_json)) if t]
        if not traced:
            raise SetupError("no traced invocation completed")
        metrics = {name: median([t[name] for t in traced]) for name in traced[0]}
        setup_wall = median([c.wall_s for c in setup])
        untraced_main = median([c.wall_s for c in plain]) - setup_wall
        metrics["rss.above_setup_mb"] = median([c.rss_mb for c in plain]) - median([c.rss_mb for c in setup])
        metrics["trace.overhead_ratio"] = metrics["cli.main.s"] / untraced_main
        print(
            f"traced invocations: {len(traced)}; traced cli.main {metrics['cli.main.s']:.4f} s "
            f"against untraced wall_s - setup_s {untraced_main:.4f} s"
        )
        return metrics


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from None


def result_line(bench: Bench, values: dict[str, float], declared: list[dict]) -> str:
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise SetupError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}")
    for m in declared:
        print(f"{m['name']}: {values[m['name']]!r} {m['unit']}")
    failed = len(bench.failures)
    print(f"error_rate: {failed}/{bench.attempted} = {failed / bench.attempted!r} (failed/attempted invocations)")
    return json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = perf_counter()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # started first, while this process is small: see spawner.py
    spawner = Spawner()
    try:
        spec = load_spec()
        work.mkdir(parents=True)
        bench = Bench(args.workload, args.seed, work, spawner)
        print(
            f"workload {args.workload} seed={args.seed} trace={args.trace} "
            f"python={platform.python_version()} nproc={os.cpu_count()}"
        )
        bench.prepare()
        if args.trace:
            values, declared = bench.per_layer(args.seconds, run_start), spec["per_layer"]
        else:
            values, declared = bench.end_to_end(args.seconds, run_start), spec["end_to_end"]
        line = result_line(bench, values, declared)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        spawner.kill()
        raise
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
