import math
import os
import subprocess
import sys
from pathlib import Path

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
    # the bounds are folded one series at a time: a first point of a later
    # series is not first overall, and a NaN there is passed over
    "nan first in a later series": [(T, T, "a"), (np.r_[NAN, T[1:]], np.r_[NAN, T[1:] - 5], "b")],
    "nan first in the first series": [(np.r_[NAN, T[1:]], np.r_[NAN, T[1:]], "a"), (T - 5, T + 5, "b")],
    "nan first after an empty series": [([], [], "none"), (T, np.r_[NAN, T[1:]], "b"), (T, T, "c")],
    "signed zero first in each series": [
        ([-0.0, 0.0], [0.0, -0.0], "a"), ([0.0, -0.0], [-0.0, 0.0], "b"), ([-0.0], [-0.0], "c"),
    ],
    "negative zero first, then a positive zero bound": [
        ([-0.0, 1.0], [-0.0, 1.0], "a"), ([0.0, 2.0], [0.0, -1.0], "b"),
    ],
    "seven colours": [(T, T * k, f"s{k}") for k in range(7)],
}


class TestRenderLines:
    """The array mapping against the point-by-point document, byte for byte."""

    @pytest.mark.parametrize("series", CASES.values(), ids=CASES.keys())
    def test_cases(self, series):
        assert_same_document(series, title="t", xlabel="x", ylabel="y", comment="c")

    # eighths keep every finite value far below 1e16, where the reference
    # raises on an axis of equal values (TestFlatHugeAxis)
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


def test_canonical_plot_peak(traced_peak):
    # one list of every x and one of every y for the bounds peak at 2.3 MiB
    r = np.linspace(0.01, 2.1, 4096)
    series = [(r, np.pi / 4 + np.sin(k * r) * np.exp(-r), f"t={k}") for k in range(6)]
    assert traced_peak(lambda: plots.render_lines(series)) < 1.0


def reference_ticks(lo, hi, n=5):
    """_ticks as first written, whose loop never ends on a span of a few ulps."""
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return out


class TestTicks:
    def test_span_of_a_few_ulps_ends(self):
        # in a child process, so that a tick loop that never ends fails the
        # test instead of hanging the suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "from varwave.plots import _ticks; print(_ticks(1e16, 1e16 + 4))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[1e+16]\n"

    # spans of at least 1e-9 of the ends, where the first loop ends
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-9, 1e3),
        st.sampled_from([1e-3, 1.0, 1e3, 1e12]),
    )
    def test_same_ticks_where_the_first_loop_ended(self, lo, rel_span, scale):
        lo *= scale
        hi = lo + rel_span * max(abs(lo), scale)
        assert plots._ticks(lo, hi) == reference_ticks(lo, hi)


class TestFlatHugeAxis:
    """Values that all equal one number past about 1e16, where 0.5 is below the ulp."""

    PLOT_MID_Y = f"{_MARGIN_T + (_HEIGHT - _MARGIN_T - _MARGIN_B) / 2:.2f}"

    @pytest.mark.parametrize("value", [1e16, 1e20, -1e300])
    def test_huge_equal_y_gives_a_finite_svg(self, value):
        series = [(T, np.full(7, value), "flat")]
        with pytest.raises(ZeroDivisionError):
            reference_render_lines(series)
        doc = plots.render_lines(series, title="t", xlabel="x", ylabel="y", comment="c")
        assert "nan" not in doc and "inf" not in doc
        points = doc.split('<polyline points="')[1].split('"')[0].split()
        assert [p.split(",")[1] for p in points] == [self.PLOT_MID_Y] * 7

    def test_huge_equal_x_gives_a_finite_svg(self):
        doc = plots.render_lines([(np.full(7, 1e20), T, "vertical")])
        assert "nan" not in doc and "inf" not in doc
        with pytest.raises(ZeroDivisionError):
            reference_render_lines([(np.full(7, 1e20), T, "vertical")])


class TestOverflowingAxis:
    """Axes whose span hi - lo overflows a float: drawn on the axis scaled by 1/4."""

    MAX = sys.float_info.max

    @staticmethod
    def polyline(doc):
        points = doc.split('<polyline points="')[1].split('"')[0].split()
        return [tuple(p.split(",")) for p in points]

    @staticmethod
    def labels(doc, anchor):
        return [
            float(line.split(">")[1].split("<")[0])
            for line in doc.split("\n")
            if f'text-anchor="{anchor}">' in line
        ]

    def test_wide_x_renders(self):
        series = [([-1e308, 1e308], [0.0, 1.0], "wide")]
        with pytest.raises(OverflowError):
            reference_render_lines(series)
        doc = plots.render_lines(series)
        assert "nan" not in doc and "inf" not in doc
        assert [x for x, _ in self.polyline(doc)] == ["72.00", f"{_WIDTH - _MARGIN_R:.2f}"]
        # "wide" is the legend, the only middle-anchored text besides the ticks
        assert self.labels(doc, "middle") == [-8e307, -4e307, 0.0, 4e307, 8e307]

    @pytest.mark.parametrize("ends", [(-1.7e308, 1.7e308), (-MAX, MAX), (-MAX, 0.0)])
    def test_tall_y_renders(self, ends):
        lo, hi = ends
        series = [([0.0, 1.0, 2.0], [lo, 0.5 * lo + 0.5 * hi, hi], "tall")]
        doc = plots.render_lines(series)
        assert "nan" not in doc and "inf" not in doc
        ys = [float(y) for _, y in self.polyline(doc)]
        assert ys[0] > ys[1] > ys[2]  # pixel rows grow downwards
        ticks = self.labels(doc, "end")
        assert len(ticks) >= 2 and ticks == sorted(ticks)
        assert ticks[0] <= 0.5 * lo and ticks[-1] >= 0.5 * hi

    def test_both_axes_across_every_float(self):
        doc = plots.render_lines([([-self.MAX, self.MAX], [-self.MAX, self.MAX], "all")])
        assert "nan" not in doc and "inf" not in doc
        assert self.labels(doc, "end") == [-1.6e308, -8e307, 0.0, 8e307, 1.6e308]

    @pytest.mark.parametrize("value", [MAX, -MAX])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_flat_axis_at_the_largest_float_renders(self, axis, value):
        # the neighbouring float past it is infinite, so the axis widens inwards
        flat = np.full(7, value)
        series = [(flat, T, "flat") if axis == "x" else (T, flat, "flat")]
        with pytest.raises(ZeroDivisionError):
            reference_render_lines(series)
        doc = plots.render_lines(series)
        assert "nan" not in doc and "inf" not in doc
