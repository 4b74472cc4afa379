"""Minimal self-contained SVG line charts.

Deliberately small: polylines, axis ticks, and a legend, with no external
references, stylesheets, or scripts.  Undefined values (nan) break the
polyline into segments instead of being drawn.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46
_TICKS = 5
# chart curves: (legend name, (x, y) points) pairs
_Curves = Sequence[tuple[str, Sequence[tuple[float, float]]]]


def _escape(text: str) -> str:
    # `&` first, so the entities of the other two are not escaped again
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def render_line_chart(title: str, x_label: str, y_label: str, curves: _Curves) -> str:
    xs = [x for _, curve in curves for x, y in curve if math.isfinite(x) and math.isfinite(y)]
    ys = [y for _, curve in curves for x, y in curve if math.isfinite(x) and math.isfinite(y)]
    if not xs:
        raise ValueError("nothing to plot: every point has a non-finite coordinate")
    x_lo, x_hi = _bounds(xs)
    y_lo, y_hi = _bounds(ys)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{_escape(title)}</text>',
    ]

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<g stroke="black" stroke-width="1">'
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y}"/>'
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_y}"/>'
        f"</g>"
    )

    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        tick_x = px(x_val)
        tick_y = py(y_val)
        parts.append(
            f'<line x1="{tick_x:.1f}" y1="{axis_y}" x2="{tick_x:.1f}" y2="{axis_y + 5}" stroke="black"/>'
            f'<text x="{tick_x:.1f}" y="{axis_y + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{x_val:g}</text>'
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{tick_y:.1f}" x2="{_MARGIN_LEFT}" y2="{tick_y:.1f}" stroke="black"/>'
            f'<text x="{_MARGIN_LEFT - 8}" y="{tick_y + 4:.1f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{y_val:g}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{_escape(x_label)}</text>'
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )

    for index, (_, curve) in enumerate(curves):
        color = PALETTE[index % len(PALETTE)]
        # split at non-finite points so undefined values leave visible gaps,
        # and draw a point repeated from the one before it only once
        segments: list[list[tuple[float, float]]] = [[]]
        for (x, y), previous in zip(curve, (None, *curve)):
            if (x, y) == previous:
                continue
            if math.isfinite(x) and math.isfinite(y):
                segments[-1].append((px(x), py(y)))
            elif segments[-1]:
                segments.append([])
        for seg in filter(None, segments):
            if len(seg) == 1:
                cx, cy = seg[0]
                parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="{color}"/>')
            else:
                points = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
                parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')

    legend_x = _MARGIN_LEFT + plot_w - 110
    legend_y = _MARGIN_TOP + 8
    for index, (name, _) in enumerate(curves):
        color = PALETTE[index % len(PALETTE)]
        y = legend_y + index * 16
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(name)}</text>'
        )

    parts.append("</svg>")
    return "".join(parts)


def write_svg(path: str | Path, title: str, x_label: str, y_label: str, curves: _Curves) -> None:
    """Write the chart as UTF-8, whatever the locale.  A file name the locale
    could not decode reaches the title as surrogates; they are written back as
    the name's own bytes."""
    Path(path).write_bytes(render_line_chart(title, x_label, y_label, curves).encode("utf-8", "surrogateescape"))
