"""Self-tests of the benchmark: generator, output checker, tracer and runner.

    python3 bench/test_bench.py

They run the CLI from this checkout's src/ on small generated inputs and
write only under `.bench_work/` at the checkout root.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(run.CLI + list(args), capture_output=True, text=True, check=True)


def rewrite_row(path: Path, line_no: int, edit) -> None:
    """Apply `edit(row_dict)` to the data row on `line_no` of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    edit(rows[line_no - 2])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


class WorkDirTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def scored(self, seed=11, n=300, decimals=2) -> Path:
        path = self.work / "scored.csv"
        gen.write_scored_csv(path, seed, n, 0.3, decimals)
        return path


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        first = gen.scored_csv_text(5, 2000, 0.1, 3)
        self.assertEqual(first, gen.scored_csv_text(5, 2000, 0.1, 3))
        self.assertNotEqual(first, gen.scored_csv_text(6, 2000, 0.1, 3))

    def test_size_share_and_format(self):
        lines = gen.scored_csv_text(5, 2000, 0.1, 3).splitlines()
        self.assertEqual(lines[0], "score,label")
        self.assertEqual(len(lines), 2001)
        self.assertEqual(sum(line.endswith(",1") for line in lines[1:]), 200)
        for line in lines[1:]:
            score = line.split(",")[0]
            self.assertRegex(score, r"^[01]\.\d{3}$")


class ReferenceTest(unittest.TestCase):
    def test_score_equal_to_tau_is_negative(self):
        ref = check.Reference([0.5, 0.7], [0.2, 0.5])
        self.assertEqual(ref.counts(0.5), (1, 0, 1, 2))
        self.assertEqual(ref.counts(0.49), (2, 1, 0, 1))
        self.assertEqual(ref.counts(0.0), (2, 2, 0, 0))
        self.assertEqual(ref.counts(1.0), (0, 0, 2, 2))

    def test_grid_check(self):
        check.check_grid([0.0, 0.5, 1.0], 0.5)
        with self.assertRaises(check.CheckError):
            check.check_grid([0.0, 1.0], 0.5)
        with self.assertRaises(check.CheckError):
            check.check_grid([0.0, 0.5 + 1e-6, 1.0], 0.5)
        with self.assertRaises(check.CheckError):
            check.check_grid([0.0, 0.5, 0.5], 0.5)


class SweepCheckTest(WorkDirTest):
    def setUp(self):
        super().setUp()
        self.input = self.scored()
        self.ref = check.Reference.from_csv(self.input)
        self.out = self.work / "curve.csv"
        done = cli("sweep", "--file", str(self.input), "--pair", "both", "--out", str(self.out), "--svg")
        self.stdout = done.stdout
        self.curve = self.work / "curve.mcc-f1.csv"

    def assert_rejected(self, stdout=None):
        with self.assertRaises(check.CheckError):
            check.check_sweep(self.stdout if stdout is None else stdout, self.out, self.ref, 0.01)

    def test_accepts_real_output(self):
        check.check_sweep(self.stdout, self.out, self.ref, 0.01)

    def test_rejects_count_off_by_one(self):
        rewrite_row(self.curve, 40, lambda row: row.update(tp=str(int(row["tp"]) + 1)))
        self.assert_rejected()

    def test_rejects_score_equal_to_tau_counted_positive(self):
        scores = set(self.ref.pos) | set(self.ref.neg)
        with open(self.curve, newline="") as fh:
            taus = [float(row["tau"]) for row in csv.DictReader(fh)]
        line_no = next(i for i, tau in enumerate(taus, start=2) if 0 < tau < 1 and tau in scores)
        tau = taus[line_no - 2]
        # counts under `score >= tau`, with metrics consistent with them
        fn = sum(s < tau for s in self.ref.pos)
        tn = sum(s < tau for s in self.ref.neg)
        counts = (len(self.ref.pos) - fn, len(self.ref.neg) - tn, fn, tn)
        self.assertNotEqual(counts, self.ref.counts(tau))
        forms = check.closed_forms(*counts)

        def edit(row):
            row.update(zip(check.COUNT_COLUMNS, map(str, counts)))
            row.update({name: repr(value) for name, value in forms.items()})
            row["mcc_scaled"] = repr((forms["mcc"] + 1) / 2)

        rewrite_row(self.curve, line_no, edit)
        self.assert_rejected()

    def test_rejects_wrong_metric(self):
        rewrite_row(self.curve, 30, lambda row: row.update(p4=repr(float(row["p4"]) + 1e-9)))
        self.assert_rejected()

    def test_rejects_wrong_optimum(self):
        def shift_tau(match):
            return f"{match.group(1)}{float(match.group(2)) + 0.01:g}"

        self.assert_rejected(re.sub(r"(\(mcc-f1\) = )(\S+)", shift_tau, self.stdout))
        self.assert_rejected(self.stdout.replace("distance ", "distance 1", 1))
        self.assert_rejected(self.stdout.replace("(mcc-f1) = ", "(mcc-f1) = x", 1))
        self.assert_rejected(self.stdout.splitlines()[1])

    def test_rejects_broken_svg(self):
        svg = self.out.with_suffix(".svg")
        svg.write_text(svg.read_text()[:-10])
        self.assert_rejected()


class EvalCheckTest(WorkDirTest):
    def test_accepts_real_output_and_rejects_count_off_by_one(self):
        path = self.scored(decimals=3)
        ref = check.Reference.from_csv(path)
        stdout = cli("eval", "--file", str(path), "--tau", "0.5", "--format", "json").stdout
        check.check_eval_json(stdout, ref, 0.5)
        record = json.loads(stdout)
        record["counts"]["tn"] += 1
        with self.assertRaises(check.CheckError):
            check.check_eval_json(json.dumps(record), ref, 0.5)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.package = "tracerfake"
        module = types.ModuleType(f"{self.package}.confusion")
        module.classify_at_threshold = lambda samples, tau: (samples, tau)
        self.other = types.ModuleType(f"{self.package}.sweep")
        self.other.classify_at_threshold = module.classify_at_threshold
        self.modules = {m.__name__: m for m in (module, self.other)}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_missing_and_uncalled_layers_report_zero(self):
        t = tracer.Tracer()
        layers = ("confusion.classify_at_threshold", "confusion.gone", "metrics.evaluate_all")
        self.assertEqual(t.install(layers, self.package), ["confusion.classify_at_threshold"])
        # the wrapper replaced the name at every module that held the function
        self.assertTrue(hasattr(self.other.classify_at_threshold, "__wrapped__"))
        # a call whose argument does not fit the probe is timed but not counted
        self.assertEqual(self.other.classify_at_threshold(None, 0.5), (None, 0.5))
        metrics = tracer.layer_metrics({"import_s": 0.1, "spans": t.spans, "counts": t.counts})
        self.assertEqual(metrics["confusion.classify_at_threshold.calls"], 1)
        self.assertEqual(metrics["confusion.samples_scanned"], 0)
        self.assertEqual(metrics["metrics.evaluate_all.calls"], 0)
        self.assertEqual(metrics["metrics.evaluate_all.us_per_call"], 0.0)
        self.assertEqual(metrics["cli.main.s"], 0.0)

    def test_self_time_excludes_children(self):
        record = {
            "import_s": 0.0,
            "counts": {},
            "spans": [("cli.main", 0.0, 10.0, -1), ("sweep.threshold_sweep", 1.0, 9.0, 0),
                      ("metrics.evaluate_all", 2.0, 5.0, 1)],
        }
        metrics = tracer.layer_metrics(record)
        self.assertEqual(metrics["cli.main.self_s"], 2.0)
        self.assertEqual(metrics["sweep.threshold_sweep.self_s"], 5.0)
        self.assertEqual(metrics["metrics.evaluate_all.us_per_call"], 3e6)


class RunnerTest(WorkDirTest):
    def test_copy_outside_src_is_refused(self):
        run.check_location(str(run.SRC / "p4metrics" / "__init__.py"))
        with self.assertRaises(run.SetupError):
            run.check_location("/usr/lib/python3/site-packages/p4metrics/__init__.py")

    def test_fails_without_result_when_the_program_is_missing(self):
        root = self.work / "bare"
        shutil.copytree(run.BENCH, root / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        done = subprocess.run(
            [sys.executable, str(root / run.BENCH.name / "run.py"), "--workload", "sweep-fine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=root,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        self.assertEqual(sorted(p.name for p in root.iterdir()), sorted([run.BENCH.name, "BENCHMARK.json"]))


if __name__ == "__main__":
    unittest.main()
