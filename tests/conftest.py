import csv
from pathlib import Path

import pytest
from hypothesis import strategies as st

from p4metrics import ConfusionMatrix, ScoredSamples, read_scored_csv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO_CSV = FIXTURES / "scored_demo.csv"

# frozen oracle results for fixtures/scored_demo.csv (computed with
# tests/oracles.py before the library existed)
DEMO_COUNTS_AT_HALF = (49, 32, 11, 108)
DEMO_BEST = {
    "mcc-f1": (0.45, 0.330718432987827),
    "mcc-p4": (0.55, 0.2895033227029972),
}


@st.composite
def matrices(draw, max_count=10**6):
    counts = st.integers(min_value=0, max_value=max_count)
    tp, fp, fn, tn = (draw(counts) for _ in range(4))
    if tp + fp + fn + tn == 0:
        tn = 1
    return ConfusionMatrix(tp, fp, fn, tn)


def samples_from(pairs):
    """The ScoredSamples of `pairs` of (score, is_positive), the form tests/oracles.py takes."""
    return ScoredSamples(
        [score for score, is_positive in pairs if is_positive],
        [score for score, is_positive in pairs if not is_positive],
    )


# 2,000 good rows, so that a bad byte after them lies past the first 8 KB
_GOOD_ROWS = b"0.5,1\n" * 2000
# scored CSVs, each with one byte that is not UTF-8 past the first 8 KB, with
# the line it is on and the start of the message that names it
NON_UTF8_CSVS = {
    "score": (b"score,label\n" + _GOOD_ROWS + b"0.\xff5,1\n", 2002, r"line 2002: bad score '0.\udcff5'"),
    "label": (b"score,label\n" + _GOOD_ROWS + b"0.5,\xff\n", 2002, r"line 2002: unknown label '\udcff'"),
    "header": (b"score" + b" " * 9000 + b",lab\xffel\n0.5,1\n", 1, "line 1: expected header 'score,label'"),
    "quoted": (b'score,label\n"0.5",1\n' + _GOOD_ROWS + b"0.\xff5,1\n", 2003, r"line 2003: bad score '0.\udcff5'"),
}


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def scored_pairs(min_size=1, max_size=50):
    """Lists of (score, is_positive) pairs, for `samples_from` and the oracles."""
    return st.lists(st.tuples(unit_floats, st.booleans()), min_size=min_size, max_size=max_size)


@pytest.fixture(scope="session")
def demo_samples():
    return read_scored_csv(DEMO_CSV)


@pytest.fixture(scope="session")
def demo_pairs():
    """(score, is_positive) tuples of the demo fixture, read without the library."""
    with open(DEMO_CSV, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(score), label == "positive") for score, label in rows]
