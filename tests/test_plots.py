import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import plots
from varwave.plots import _COLORS, _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH


def reference_render_lines(series, title="", xlabel="", ylabel="", comment=""):
    """render_lines as first written: every point mapped and formatted by
    Python float arithmetic, one f-string per point."""
    xs = [float(v) for x, _, _ in series for v in x]
    ys = [float(v) for _, y, _ in series for v in y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="#444"/>'
    )
    for tx in plots._ticks(x_lo, x_hi):
        X = sx(tx)
        parts.append(
            f'<line x1="{X:.1f}" y1="{_MARGIN_T + px_h}" x2="{X:.1f}" '
            f'y2="{_MARGIN_T + px_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{X:.1f}" y="{_MARGIN_T + px_h + 18}" '
            f'text-anchor="middle">{plots._fmt(tx)}</text>'
        )
    for ty in plots._ticks(y_lo, y_hi):
        Y = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{Y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{Y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{Y + 4:.1f}" '
            f'text-anchor="end">{plots._fmt(ty)}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 12}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + px_w / 2}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + px_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MARGIN_T + px_h / 2})">{ylabel}</text>'
        )
    for k, (x, y, label) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_T + 16 + 16 * k
            lx = _MARGIN_L + px_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def outcome(render, series, **kw):
    """The document, or the type of the exception raised."""
    try:
        return render(series, **kw)
    except ArithmeticError as exc:
        return type(exc)


def assert_same_document(series, **kw):
    got = outcome(plots.render_lines, series, **kw)
    assert got == outcome(reference_render_lines, series, **kw)


NAN, INF = math.nan, math.inf
T = np.linspace(0.0, 1.0, 7)

CASES = {
    "no series": [],
    "empty series": [([], [], "none")],
    "one point": [([0.5], [2.0], "dot")],
    "equal x": [([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], "vertical")],
    "equal y": [(T, np.full(7, 3.0), "flat")],
    "equal x and y": [([2.0, 2.0], [-1.0, -1.0], "")],
    "nan first": [(T, np.r_[NAN, T[1:]], "1/S")],
    "nan later": [(T, np.r_[T[:3], NAN, T[4:]], "1/S")],
    "nan x first": [(np.r_[NAN, T[1:]], T, "x")],
    "inf points": [(T, np.r_[T[:2], INF, T[3:]], "up"), (T, np.r_[-INF, T[1:]], "down")],
    "inf x": [(np.r_[T[:-1], INF], T, "right")],
    "unequal lengths": [(T, T[:4], "short y"), (T[:3], T, "short x")],
    "lists and ints": [([0, 1, 2], [3, 1, 4], "ints")],
    "signed zeros": [([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], "zeros")],
    "seven colours": [(T, T * k, f"s{k}") for k in range(7)],
    "huge equal y": [(T, np.full(7, 1e20), "flat")],
}


class TestRenderLines:
    """The array mapping against the point-by-point document, byte for byte."""

    @pytest.mark.parametrize("series", CASES.values(), ids=CASES.keys())
    def test_cases(self, series):
        assert_same_document(series, title="t", xlabel="x", ylabel="y", comment="c")

    # eighths keep every finite span far above the ulp of its ends: _ticks
    # never ends on a span of a few ulps, in either version
    POINT = st.one_of(
        st.integers(-800, 800).map(lambda k: k / 8), st.sampled_from([NAN, INF, -INF, -0.0])
    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(POINT, POINT), max_size=12), max_size=3))
    def test_hypothesis_series(self, lines):
        series = [
            ([p[0] for p in pts], [p[1] for p in pts], f"line {k}")
            for k, pts in enumerate(lines)
        ]
        assert_same_document(series)

    def test_canonical_plot(self):
        r = np.linspace(0.01, 2.1, 4096)
        series = [(r, np.pi / 4 + np.sin(k * r) * np.exp(-r), f"t={k}") for k in range(6)]
        assert_same_document(series, title="u(r) snapshots", xlabel="r", ylabel="u")
