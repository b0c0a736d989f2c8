"""Minimal self-contained SVG line plots (no plotting dependencies)."""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 20, 36, 52
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
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
        if v + step == v:  # step below the ulp of v: a span of a few ulps
            break
        v += step
    return out


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """Axis bounds; lo = hi widens by 0.5, or to the next finite floats when that is lost."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
        if lo == hi and math.isfinite(lo):
            big = sys.float_info.max
            lo = max(math.nextafter(lo, -math.inf), -big)
            hi = min(math.nextafter(hi, math.inf), big)
    return lo, hi


def _axis(lo: float, hi: float, pad: float = 0.0) -> tuple[float, float, float]:
    """(k, k*lo - p, k*hi + p): the axis scaled by k and padded by p = pad*k*(hi - lo).

    k = 1, or 1/4 when the ends are finite but the padded axis or its span
    overflows a float.  The pixel map and the ticks work on the scaled axis,
    where every bound and span is finite; a tick at v is labelled v / k.
    """
    for k in (1.0, 0.25):
        a, b = k * lo, k * hi
        p = pad * (b - a) if pad else 0.0
        a, b = a - p, b + p
        if k < 1.0 or not (math.isfinite(lo) and math.isfinite(hi)) or math.isfinite(b - a):
            return k, a, b


def _tick_labels(k: float, lo: float, hi: float) -> list[tuple[float, float]]:
    """(v, v / k) for each tick v of the scaled axis [lo, hi] whose label v / k is finite."""
    return [(v, v / k) for v in _ticks(lo, hi) if k == 1.0 or math.isfinite(v / k)]


def _bounds(arrays) -> tuple[float, float] | None:
    """Python's (min, max) over the values of the arrays in turn, or None if there are none.

    The fold reads one array's ``tolist()`` at a time and carries its
    running bound into the next, so it keeps the first of equal values and
    passes over a NaN that is not the first value, as min and max over one
    list of every value do.
    """
    lo = hi = None
    for a in arrays:
        values = a.tolist()
        if not values:
            continue
        if lo is None:
            lo = hi = values[0]
        lo = min(itertools.chain((lo,), values))
        hi = max(itertools.chain((hi,), values))
    return None if lo is None else (lo, hi)


def render_lines(
    series: list[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    comment: str = "",
) -> str:
    """SVG document for a list of (x, y, label) polylines.

    The axis bounds are Python's min and max over every point, so a NaN
    first point makes its axis NaN and a later NaN is passed over.  They are
    folded one polyline at a time (``_bounds``), so a call holds the Python
    floats of one polyline, not of every point.  Each polyline is mapped to
    pixels as whole arrays by ``sx`` and ``sy``, the maps of the ticks, and
    formatted by one ``%``; a polyline pairs its points up to the shorter of
    x and y, as ``zip`` does.  An axis that overflows a float is drawn
    scaled (see ``_axis``).
    """
    arrays = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y, _ in series]
    x_bounds = _bounds(x for x, _ in arrays)
    y_bounds = _bounds(y for _, y in arrays)
    if x_bounds is None:
        x_bounds = y_bounds = (0.0, 1.0)
    elif y_bounds is None:
        raise ValueError("the series have x values but no y values")
    kx, x_lo, x_hi = _axis(*_widen(*x_bounds))
    ky, y_lo, y_hi = _axis(*_widen(*y_bounds), pad=0.04)

    px_w = _WIDTH - _MARGIN_L - _MARGIN_R
    px_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):  # a float, or an array of them
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
    ]
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
    for tx, label in _tick_labels(kx, x_lo, x_hi):
        X = sx(tx)
        parts.append(
            f'<line x1="{X:.1f}" y1="{_MARGIN_T + px_h}" x2="{X:.1f}" '
            f'y2="{_MARGIN_T + px_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{X:.1f}" y="{_MARGIN_T + px_h + 18}" '
            f'text-anchor="middle">{_fmt(label)}</text>'
        )
    for ty, label in _tick_labels(ky, y_lo, y_hi):
        Y = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{Y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{Y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{Y + 4:.1f}" '
            f'text-anchor="end">{_fmt(label)}</text>'
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
    for k, ((x, y), (_, _, label)) in enumerate(zip(arrays, series)):
        color = _COLORS[k % len(_COLORS)]
        m = min(x.size, y.size)
        with np.errstate(all="ignore"):  # Python floats give inf and NaN silently
            xy = np.column_stack((sx(kx * x[:m]), sy(ky * y[:m])))
        pts = ("%.2f,%.2f " * m % tuple(xy.ravel().tolist()))[:-1]
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


def write_svg(path, series, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_lines(series, **kwargs))
        fh.write("\n")
