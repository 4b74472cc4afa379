"""Acceptance suite: one test per acceptance criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion (the PASS print fires only after every assertion in the
criterion held).
"""

import itertools
import random
import time

import pytest

import p4metrics
from p4metrics import (
    ConfusionMatrix,
    SimulationSpec,
    balance_sweep,
    basic_rates,
    classify_at_threshold,
    confusion_from_rates,
    csvio,
    evaluate_all,
    f1,
    markedness,
    mcc,
    optimal_threshold,
    p4,
    swap_labels,
    threshold_sweep,
    tpr_sweep,
    youden,
)
from p4metrics.cli import main
from conftest import DEMO_BEST, DEMO_CSV, samples_from
import golden
import oracles

CORPUS_SIZE = 100_000


def _pass(name):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """Random count tuples, uniform in [0, 10^6], never all-zero."""
    rng = random.Random(2718)
    matrices = []
    while len(matrices) < CORPUS_SIZE:
        counts = tuple(rng.randint(0, 10**6) for _ in range(4))
        if sum(counts):
            matrices.append(counts)
    return matrices


def test_golden_tables_for_all_four_cases():
    started = time.perf_counter()
    rates_checked = composites_checked = 0
    for case, counts in golden.CASES.items():
        report = evaluate_all(ConfusionMatrix(*counts))
        for name, printed in golden.RATES[case].items():
            assert golden.matches_4dp(getattr(report, name).value, printed), (case, name)
            rates_checked += 1
        for name, printed in golden.COMPOSITES[case].items():
            assert golden.matches_4dp(getattr(report, name).value, printed), (case, name)
            composites_checked += 1
    elapsed = time.perf_counter() - started
    assert rates_checked == 16 and composites_checked == 20
    assert elapsed < 1.0
    _pass(f"golden tables (16 rates + 20 composites in {elapsed * 1000:.0f} ms)")


def test_label_swap_symmetry_on_random_corpus(corpus):
    for counts in corpus:
        c = ConfusionMatrix(*counts)
        s = swap_labels(c)
        for metric in (p4, mcc, youden, markedness):
            ours, theirs = metric(c), metric(s)
            assert ours.is_defined == theirs.is_defined
            if ours.is_defined:
                assert abs(ours.value - theirs.value) <= 1e-12
        rates_c, rates_s = basic_rates(c), basic_rates(s)
        assert rates_c.prec == rates_s.npv
        assert rates_c.rec == rates_s.spec

    # F1 is the odd one out: the C1/C2 pair changes its value under the swap
    c1 = ConfusionMatrix(*golden.CASES["C1"])
    assert f1(c1).value != f1(swap_labels(c1)).value
    _pass(f"label-swap symmetry ({len(corpus)} random matrices)")


def test_harmonic_mean_equivalence_on_random_corpus(corpus):
    checked = 0
    for counts in corpus:
        c = ConfusionMatrix(*counts)
        rates = basic_rates(c)
        if not all(v.is_defined and v.value > 0 for v in rates):
            continue
        harmonic4 = 4 / sum(1 / v.value for v in rates)
        assert abs(p4(c).value - harmonic4) <= 1e-12
        harmonic2 = 2 / (1 / rates.prec.value + 1 / rates.rec.value)
        assert abs(f1(c).value - harmonic2) <= 1e-12
        checked += 1
    assert checked > CORPUS_SIZE * 0.99
    _pass(f"harmonic-mean equivalence ({checked} all-rates-positive matrices)")


def test_worst_rate_bound_and_near_perfect_floor(corpus):
    checked = 0
    for counts in corpus:
        c = ConfusionMatrix(*counts)
        value = p4(c)
        rates = basic_rates(c)
        if not (value.is_defined and all(v.is_defined for v in rates)):
            continue
        assert value.value <= 4 * min(v.value for v in rates) + 1e-12
        checked += 1
    assert checked > CORPUS_SIZE * 0.99

    epsilon = 1e-3
    rng = random.Random(31415)
    near_perfect = 0
    for _ in range(2000):
        tp = rng.randint(10_000, 1_000_000)
        tn = rng.randint(10_000, 1_000_000)
        cap = max(1, int(5e-4 * min(tp, tn)))
        c = ConfusionMatrix(tp, rng.randint(0, cap), rng.randint(0, cap), tn)
        if all(v.value >= 1 - epsilon for v in basic_rates(c)):
            assert p4(c).value >= 1 - 4 * epsilon
            near_perfect += 1
    assert near_perfect >= 1000
    _pass(f"worst-rate bound ({checked} matrices) and near-perfect floor ({near_perfect})")


def test_strict_monotonicity_on_exhaustive_grid():
    span = range(1, 13)
    values = {
        counts: p4(ConfusionMatrix(*counts)).value
        for counts in itertools.product(span, repeat=4)
    }
    comparisons = 0
    for (tp, fp, fn, tn), base in values.items():
        if tp < 12:
            assert values[(tp + 1, fp, fn, tn)] > base
            comparisons += 1
        if tn < 12:
            assert values[(tp, fp, fn, tn + 1)] > base
            comparisons += 1
        if fp < 12:
            assert values[(tp, fp + 1, fn, tn)] < base
            comparisons += 1
        if fn < 12:
            assert values[(tp, fp, fn + 1, tn)] < base
            comparisons += 1
    assert comparisons == 4 * (11 * 12**3)
    _pass(f"strict monotonicity on the [1,12]^4 grid ({comparisons} comparisons)")


def test_simulation_reproduces_reference_studies():
    started = time.perf_counter()

    parameters = {
        "C1": SimulationSpec(10_000, 0.005, 0.9, 0.9),
        "C2": SimulationSpec(10_000, 0.995, 0.9, 0.9),
        "C3": SimulationSpec(10_000, 0.10, 0.05, 0.999),
        "C4": SimulationSpec(10_000, 0.90, 0.999, 0.05),
    }
    for case, spec in parameters.items():
        matrix = confusion_from_rates(spec)
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == golden.CASES[case]

    balance = balance_sweep(10_000, 0.1, 0.1)
    reports = [evaluate_all(matrix) for matrix in balance.matrices]
    for report in reports:
        assert f"{report.j_scaled.value:.4f}" == "0.1000"
        assert abs(report.j_scaled.value - 0.1) <= 1e-12
    for name in ("p4", "mcc_scaled", "j_scaled", "mk_scaled"):
        for report, mirror in zip(reports, reversed(reports)):
            assert getattr(report, name) == getattr(mirror, name)

    rate_curve = tpr_sweep(10_000, 0.95, 0.8)
    closing = evaluate_all(rate_curve.matrices[-1])
    assert rate_curve.keys[-1] == 1.0
    assert abs((closing.f1.value - closing.mcc_scaled.value) - 0.05) <= 0.006

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(f"simulation reproduction (4 matrices + 2 sweeps in {elapsed:.2f} s)")


def test_sweep_matches_independent_oracles(demo_samples, demo_pairs):
    curve = threshold_sweep(demo_samples)
    assert len(curve.keys) == 101
    for tau, m in zip(curve.keys, curve.matrices):
        assert (m.tp, m.fp, m.fn, m.tn) == oracles.classify_counts(demo_pairs, tau)

    for y_name in ("f1", "p4"):
        best = optimal_threshold(curve, y_name)
        oracle_tau, oracle_distance = oracles.best_threshold(curve.keys, demo_pairs, y_name)
        assert best.tau == oracle_tau
        assert abs(best.distance - float(oracle_distance)) <= 1e-12
    _pass("sweep equivalence with linear-scan and exhaustive-scan oracles")


def test_external_classifier_thresholds_are_out_of_scope(demo_samples):
    """Thresholds published for specific trained classifiers are not golden here.

    Reproducing them would require training that classifier on its external
    dataset, which this package deliberately does not do.  The sweep engine
    is accepted through oracle equivalence on the bundled fixture instead;
    its own optima are asserted below and nothing beyond them is claimed.
    """
    assert not any(name in ("fit", "train", "svm") for name in p4metrics.__all__)
    curve = threshold_sweep(demo_samples)
    for pair, (tau, distance) in DEMO_BEST.items():
        best = optimal_threshold(curve, pair.removeprefix("mcc-"))
        assert best.tau == tau
        assert abs(best.distance - distance) <= 1e-12
    _pass("external-classifier thresholds excluded; fixture optima stand in")


def test_cli_round_trip_and_error_statuses(capsys, tmp_path):
    path = tmp_path / "cases.csv"
    assert main(["cases", "--format", "csv", "--out", str(path)]) == 0
    key_column, keys, rows = oracles.read_metrics_csv(path)
    assert key_column == "case"
    assert keys == ["C1", "C2", "C3", "C4"]
    assert rows == [csvio.row(row[:4]) for row in rows]

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    error_runs = [
        ["eval", "--counts", "0,0,0,0"],
        ["sweep", "--file", str(empty)],
        ["simulate", "tpr", "--pos", "1.5", "--tnr", "0.8"],
        ["eval", "--file", str(tmp_path / "missing.csv")],
    ]
    for argv in error_runs:
        assert main(argv) == 2, argv
    assert main(["eval", "--counts", "1,2,3,4"]) == 0
    capsys.readouterr()
    _pass("CLI csv round-trip identity and exit-status contract")


def test_classification_agrees_with_naive_oracle_in_bulk():
    rng = random.Random(97)
    decisions = 0
    for _ in range(500):
        n = rng.randint(1, 50)
        pairs = [(round(rng.random(), 3), rng.choice((True, False))) for _ in range(n)]
        tau = rng.choice((0.0, 1.0, round(rng.random(), 3)))
        c = classify_at_threshold(samples_from(pairs), tau)
        assert (c.tp, c.fp, c.fn, c.tn) == oracles.classify_counts(pairs, tau)
        decisions += n
    assert decisions >= 10_000
    _pass(f"thresholded classification vs naive oracle ({decisions} sample decisions)")
