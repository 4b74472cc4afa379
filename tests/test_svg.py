import math
import xml.etree.ElementTree as ET

import pytest

from p4metrics.svg import render_line_chart, write_svg


CURVES = (
    ("rising", ((0.0, 0.0), (0.5, 0.4), (1.0, 1.0))),
    ("falling", ((0.0, 1.0), (0.5, 0.6), (1.0, 0.2))),
)


def chart(curves=CURVES, title="demo chart"):
    return render_line_chart(title, "x", "y", curves)


def test_output_is_well_formed_xml():
    root = ET.fromstring(chart())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_self_contained():
    doc = chart()
    for needle in ("href", "url(", "<script", "@import"):
        assert needle not in doc


def test_legend_names_and_labels_present():
    doc = chart()
    for text in ("rising", "falling", "demo chart", "x", "y"):
        assert text in doc


def test_nan_splits_polyline_into_segments():
    doc = chart([("gappy", ((0.0, 0.1), (0.25, 0.2), (0.5, math.nan), (0.75, 0.4), (1.0, 0.5)))])
    assert doc.count("<polyline") == 2


def test_isolated_point_becomes_marker():
    doc = chart([("dots", ((0.0, math.nan), (0.5, 0.4), (1.0, math.nan)))])
    assert doc.count("<polyline") == 0
    assert doc.count("<circle") == 1
    assert '<circle cx="380.00" cy="234.00" r="2" fill="#1f77b4"/>' in doc


def test_infinite_point_splits_polyline():
    doc = chart([("gappy", ((0.0, 0.1), (0.25, 0.2), (0.5, math.inf), (0.75, 0.4), (1.0, 0.5)))])
    assert 'points="56.00,434.00 218.00,334.00"' in doc
    assert 'points="542.00,134.00 704.00,34.00"' in doc


def test_repeated_points_render_like_the_series_without_them():
    # a repeat after a gap is kept, and a run of one point's copies becomes a marker
    points = ((0.0, 0.1), (0.25, 0.2), (0.5, math.nan), (0.25, 0.2), (0.75, 0.4), (0.9, math.nan), (1.0, 0.5))
    repeated = (
        (0.0, 0.1), (0.0, 0.1), (0.25, 0.2), (0.5, math.nan), (0.5, math.nan), (0.25, 0.2),
        (0.75, 0.4), (0.75, 0.4), (0.75, 0.4), (0.9, math.nan), (1.0, 0.5), (1.0, 0.5),
    )
    doc = chart([("repeats", repeated)])
    assert doc == chart([("repeats", points)])
    assert doc.count("<polyline") == 2
    assert doc.count("<circle") == 1


def test_all_nan_rejected():
    with pytest.raises(ValueError):
        chart([("empty", ((0.0, math.nan), (1.0, math.nan)))])


def test_names_are_escaped():
    doc = chart([("a <& b", ((0.0, 0.0), (1.0, 1.0)))], title="t & t")
    ET.fromstring(doc)


def test_write_svg(tmp_path):
    path = tmp_path / "chart.svg"
    write_svg(path, "demo chart", "x", "y", CURVES)
    ET.fromstring(path.read_text())
