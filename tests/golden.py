"""Reference tables for the four edge-case matrices C1..C4, and the CLI's pinned outputs.

Per case: the four conditional rates and the five unit-scaled composites,
at 4 decimal places.  Tolerance when checking is one unit in the fourth
decimal.

The CLI's outputs on the fixtures are pinned byte for byte: the files under
fixtures/golden/ were written by the CLI before the sweep and simulation
series were merged into one type, the two charts before the CLI's chart
builders were merged, and `sweep_demo.csv` before a series became its keys
and matrices; any refactor must reproduce them exactly.  This module imports
no third-party module, so that every supported Python can check them:

    PYTHONPATH=src python3 tests/golden.py

prints each pinned output that differs and exits 1 if one does.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

from p4metrics.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO_CSV = FIXTURES / "scored_demo.csv"
GOLDEN = FIXTURES / "golden"

CASES = {
    "C1": (45, 995, 5, 8955),
    "C2": (8955, 5, 995, 45),
    "C3": (50, 9, 950, 8991),
    "C4": (8991, 950, 9, 50),
}

RATES = {
    "C1": {"prec": 0.0433, "rec": 0.9000, "spec": 0.9000, "npv": 0.9994},
    "C2": {"prec": 0.9994, "rec": 0.9000, "spec": 0.9000, "npv": 0.0433},
    "C3": {"prec": 0.8475, "rec": 0.0500, "spec": 0.9990, "npv": 0.9044},
    "C4": {"prec": 0.9044, "rec": 0.9990, "spec": 0.0500, "npv": 0.8475},
}

COMPOSITES = {
    "C1": {"p4": 0.1519, "f1": 0.0826, "mcc_scaled": 0.5924, "j_scaled": 0.9000, "mk_scaled": 0.5214},
    "C2": {"p4": 0.1519, "f1": 0.9471, "mcc_scaled": 0.5924, "j_scaled": 0.9000, "mk_scaled": 0.5214},
    "C3": {"p4": 0.1718, "f1": 0.0944, "mcc_scaled": 0.5960, "j_scaled": 0.5245, "mk_scaled": 0.8759},
    "C4": {"p4": 0.1718, "f1": 0.9494, "mcc_scaled": 0.5960, "j_scaled": 0.5245, "mk_scaled": 0.8759},
}


def matches_4dp(value: float, printed: float) -> bool:
    """True when `value` rounds to within one ulp of the printed 4-dp figure."""
    rounded = float(f"{value:.4f}")
    return abs(rounded - printed) <= 1e-4 + 1e-12


COMMANDS = {
    "cases.txt": ["cases"],
    "cases.csv": ["cases", "--format", "csv"],
    "cases.json": ["cases", "--format", "json"],
    "eval_demo.txt": ["eval", "--file", str(DEMO_CSV)],
    "eval_demo.csv": ["eval", "--file", str(DEMO_CSV), "--format", "csv"],
    "eval_demo.json": ["eval", "--file", str(DEMO_CSV), "--format", "json"],
    "simulate_balance.csv": ["simulate", "balance", "--n", "10000", "--tpr", "0.1", "--tnr", "0.1"],
    "simulate_tpr.csv": ["simulate", "tpr", "--n", "10000", "--pos", "0.95", "--tnr", "0.8"],
    "sweep_mcc-f1.txt": ["sweep", "--file", str(DEMO_CSV), "--pair", "mcc-f1"],
    "sweep_mcc-p4.txt": ["sweep", "--file", str(DEMO_CSV), "--pair", "mcc-p4"],
}
# sweep sends only its curve to --out, and its summary lines to stdout
OUT_FILES = [name for name in sorted(COMMANDS) if not name.startswith("sweep_")]

# chart pins: the command (without --out/--svg) and the file name of its curve CSV
CHARTS = {
    "sweep_demo.svg": (["sweep", "--file", str(DEMO_CSV), "--pair", "both"], "sweep_demo.csv"),
    "simulate_balance.svg": (COMMANDS["simulate_balance.csv"], "simulate_balance.csv"),
}

# a 1e-4 sweep of the demo (10,001 keys in 169 runs, most of many keys) pinned by
# SHA-256, since its 2.3 MB curve CSV is too large to keep as a file
FINE_SWEEP = ["sweep", "--file", str(DEMO_CSV), "--delta", "0.0001", "--pair", "both"]
FINE_SWEEP_SHA256 = {
    "curve.csv": "675dbb211421e9ef5ef0120b65b6d1e3c9da79bb8b7683b78c73e632b16c4085",
    "curve.svg": "df05ffa3640e53cb888f4ed715609516862bbfdadd59ac7fa733b3621b7b3c8a",
    "stdout": "62ab6c367dd157339b5c68f57aeaf8cb067019324cf70a17607f65b786a2e004",
}


def run(argv):
    """The exit status of the CLI on `argv`, and what it wrote to stdout, as UTF-8."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue().encode()


# Each pin runs the CLI, writing its files in directory `tmp`, and returns (got, want).


def stdout_pin(tmp, name):
    """The exit status and stdout of command `name`."""
    return run(COMMANDS[name]), (0, (GOLDEN / name).read_bytes())


def out_file_pin(tmp, name):
    """The exit status, stdout and `--out` file of command `name`."""
    target = tmp / name
    status, out = run([*COMMANDS[name], "--out", str(target)])
    return (status, out, target.read_bytes()), (0, b"", (GOLDEN / name).read_bytes())


def chart_pin(tmp, name):
    """The exit status, chart and curve CSV of chart `name`."""
    argv, csv_name = CHARTS[name]
    status, _ = run([*argv, "--out", str(tmp / csv_name), "--svg"])
    files = (name, csv_name)
    return (status, *((tmp / file).read_bytes() for file in files)), (0, *((GOLDEN / file).read_bytes() for file in files))


def fine_sweep_pin(tmp):
    """The exit status of the fine sweep, and the SHA-256 of each of its outputs."""
    out = tmp / "curve.csv"
    status, stdout = run([*FINE_SWEEP, "--out", str(out), "--svg"])
    outputs = {"curve.csv": out.read_bytes(), "curve.svg": out.with_suffix(".svg").read_bytes(), "stdout": stdout}
    return (status, {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}), (0, FINE_SWEEP_SHA256)


def check_all():
    """Print each pinned output that differs, then a count; 1 if one differs, else 0."""
    pins = [
        *((f"{name} (stdout)", stdout_pin, name) for name in sorted(COMMANDS)),
        *((f"{name} (--out)", out_file_pin, name) for name in OUT_FILES),
        *((name, chart_pin, name) for name in sorted(CHARTS)),
        ("fine sweep", fine_sweep_pin),
    ]
    failed = 0
    for label, pin, *name in pins:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                got, want = pin(Path(tmp), *name)
            except Exception:  # the CLI raised, or left out a file; the other pins are still checked
                print(f"{label}: raised")
                traceback.print_exc(file=sys.stdout)
                failed += 1
                continue
        if got != want:
            print(f"{label}: differs from its pin")
            failed += 1
    print(f"{len(pins) - failed} of {len(pins)} pinned outputs match under Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_all())
