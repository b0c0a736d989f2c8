"""Minimal self-contained SVG line plots (no plotting dependencies)."""

from __future__ import annotations

import math

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
        v += step
    return out


def render_lines(
    series: list[tuple],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    comment: str = "",
) -> str:
    """SVG document for a list of (x, y, label) polylines.

    The axis bounds are Python's min and max over every point, so a NaN
    first point makes its axis NaN and a later NaN is passed over.  Each
    polyline is mapped to pixels as whole arrays, with the operations of
    ``sx`` and ``sy`` in their order, and formatted by one ``%``; a polyline
    pairs its points up to the shorter of x and y, as ``zip`` does.
    """
    arrays = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y, _ in series]
    xs = [v for x, _ in arrays for v in x.tolist()]
    ys = [v for _, y in arrays for v in y.tolist()]
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

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
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
    for tx in _ticks(x_lo, x_hi):
        X = sx(tx)
        parts.append(
            f'<line x1="{X:.1f}" y1="{_MARGIN_T + px_h}" x2="{X:.1f}" '
            f'y2="{_MARGIN_T + px_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{X:.1f}" y="{_MARGIN_T + px_h + 18}" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        Y = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{Y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{Y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{Y + 4:.1f}" '
            f'text-anchor="end">{_fmt(ty)}</text>'
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
        xy = np.empty((m, 2))
        with np.errstate(all="ignore"):  # Python floats give inf and NaN silently
            xy[:, 0] = _MARGIN_L + (x[:m] - x_lo) / (x_hi - x_lo) * px_w
            xy[:, 1] = _MARGIN_T + (y_hi - y[:m]) / (y_hi - y_lo) * px_h
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
