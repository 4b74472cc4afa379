import csv
import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

from p4metrics import ConfusionMatrix, ScoredSamples, evaluate_all, read_scored_csv

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


def float_distance(matrix, y_name):
    """The matrix's float distance to (1, 1), or None with an undefined coordinate."""
    report = evaluate_all(matrix)
    x, y = report.mcc_scaled, getattr(report, y_name)
    if not (x.is_defined and y.is_defined):
        return None
    return math.hypot(1.0 - x.value, 1.0 - y.value)


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


# spellings of a number that Python's int and float read but no writer produces,
# each applied to a number's text, and whether the readers accept it: README,
# "File formats", says a number is ASCII without `_`, and spaces round it are ignored
NUMBER_SPELLINGS = {
    "underscore": (lambda text: text[:-1] + "_" + text[-1], False),
    "arabic-indic": (lambda text: chr(0x660 + int(text[0])) + text[1:], False),
    "full-width": (lambda text: chr(0xFF10 + int(text[0])) + text[1:], False),
    "plus": (lambda text: "+" + text, True),
    "space": (lambda text: " " + text, True),
}


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def scored_pairs(min_size=1, max_size=50):
    """Lists of (score, is_positive) pairs, for `samples_from` and the oracles."""
    return st.lists(st.tuples(unit_floats, st.booleans()), min_size=min_size, max_size=max_size)


# rows for generated scored CSV text: duplicates, quoted fields, quoted line
# ends, blank lines and, in BAD_ROWS, one row of each kind of error (the last
# is over a field size limit of 24), and two whose count of `"` misleads: the
# line with one is a whole record, and the line with two is not
GOOD_ROWS = (
    "0.5,1", "0.50,positive", "0,0", "1,NEGATIVE", ".25, 1 ", " 1e-1,0", "",
    '"0.5",1', '0.25,"0"', '"0.75","positive"', '0.75,"1\n"', '"1","0\r\n"', '0.5,"1\r"',
)
BAD_ROWS = (
    "bad,1", "1.5,0", "-0.1,1", "nan,1", "0.5,maybe", "0.5,1,extra", "0.5", " ",
    '"0.5,1"', '0.5,"2\n"', '0"5,1', '0"5,"1\n"', "0." + "1" * 30 + ",1",
)
LINE_ENDS = ("\n", "\r\n", "\r")
# a `score,label` row quoted as R's write.csv quotes a text column, and with every field quoted
QUOTINGS = {
    "quoted-labels": lambda row: row.replace(",", ',"') + '"',
    "quoted-fields": lambda row: '"' + row.replace(",", '","') + '"',
}
# the header written as most writers write it, and odd ones: good when spaced, cased
# or over two lines, bad with a field wrong, missing or extra, on an empty line or with a NUL
HEADERS = ("score,label", '"score","label"')
ODD_HEADERS = (" Score , LABEL ", '"score\n",label', "score,lab", "score,label,x", "", "score\0,label")


@st.composite
def scored_csv_texts(draw):
    """Scored CSV text: a header, one of HEADERS three times in four and else
    one of ODD_HEADERS, then up to 16 rows repeating a few good rows, then, in
    some texts, up to 8 that also repeat a few bad rows; each line drawn with
    its own line end."""

    def rows(pool, max_size):
        ended_row = st.tuples(st.sampled_from(pool), st.sampled_from(LINE_ENDS))
        palette = draw(st.lists(ended_row, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(palette), max_size=max_size))

    lines = rows(GOOD_ROWS, 16)
    if draw(st.booleans()):
        lines += rows(GOOD_ROWS + BAD_ROWS, 8)
    headers = ODD_HEADERS if draw(st.integers(min_value=0, max_value=3)) == 0 else HEADERS
    text = draw(st.sampled_from(headers)) + draw(st.sampled_from(LINE_ENDS))
    text += "".join(row + end for row, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]  # no line end after the last row
    return text


@pytest.fixture(scope="module")
def scored_path(tmp_path_factory):
    """One file for each example of a hypothesis test to write and read."""
    return tmp_path_factory.mktemp("scored") / "scores.csv"


@pytest.fixture(scope="session")
def demo_samples():
    return read_scored_csv(DEMO_CSV)


@pytest.fixture(scope="session")
def demo_pairs():
    """(score, is_positive) tuples of the demo fixture, read without the library."""
    with open(DEMO_CSV, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(score), label == "positive") for score, label in rows]
