"""Static SVG figures for runs and surfaces.

Charts are assembled as plain strings with fixed two-decimal
coordinates, so the same input always yields byte-identical markup.
Series coordinates are computed with numpy, one array operation per
step of the scalar formula and in Python's operation order; numpy's
elementwise float64 arithmetic rounds like Python's, so every
coordinate is the double the scalar formula gives.
Coordinates are formatted by `numfmt.formatted`, whose bytes are those
of `%.2f` applied to each point on its own, and the tick axis once per
panel column: a tick's x depends only on the tick range and the
column, so every series panel in a column shares it.
The CSV files stay canonical; these figures are a quick visual check.
"""

from __future__ import annotations

import numpy as np

from .engine import SeriesBundle
from .io import _atomic_write
from .numfmt import formatted, joined
from .sweep import SurfaceGrid

PANEL_W = 380
PANEL_H = 230
PAD_L = 46
PAD_R = 12
PAD_T = 28
PAD_B = 20


def _axis_range(values):
    """The finite min and max, widened by 0.5 each way when they meet;
    (0, 1) when no value is finite.

    No series holds -0.0: every zero is `x - x`, a product of
    non-negatives or a sum that starts from 0.0. So numpy's min and max,
    which may pick either of two equal zeros, cannot change a label.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if not vals.size:
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    return lo, hi


def _scale_x(xs, x_range, x0):
    """x0 + PAD_L + (x - lo_x) / (hi_x - lo_x) * inner_w for each x, grouped
    as Python groups it; x_range is `_axis_range` of the series."""
    lo_x, hi_x = x_range
    inner_w = PANEL_W - PAD_L - PAD_R
    return (x0 + PAD_L) + (xs - lo_x) / (hi_x - lo_x) * inner_w


def _scale_y(ys, y_range, y0):
    """y0 + PANEL_H - PAD_B - (y - lo_y) / (hi_y - lo_y) * inner_h for each
    y, grouped as Python groups it."""
    lo_y, hi_y = y_range
    inner_h = PANEL_H - PAD_T - PAD_B
    return (y0 + PANEL_H - PAD_B) - (ys - lo_y) / (hi_y - lo_y) * inner_h


def _tick_text(ts, t_range, x0):
    """Each tick's x in a panel at x0 as `%.2f,` rows of `numfmt.formatted`;
    ticks are integers, so every x is finite."""
    return formatted(_scale_x(ts, t_range, x0), "%.2f,")


def _polyline(x_text, ys, y_range, y0, color):
    """The ticks with a finite y as one polyline in a panel at y0;
    x_text is `_tick_text` of the panel's column."""
    keep = np.isfinite(ys)
    if not keep.any():
        return ""
    points = joined(np.concatenate(
        (x_text[keep], formatted(_scale_y(ys[keep], y_range, y0), "%.2f ")), axis=1))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points[:-1].decode()}"/>')


def _panel_frame(x0, y0, caption):
    return (
        f'<rect x="{x0 + PAD_L}" y="{y0 + PAD_T}" '
        f'width="{PANEL_W - PAD_L - PAD_R}" height="{PANEL_H - PAD_T - PAD_B}" '
        f'fill="white" stroke="#888" stroke-width="0.8"/>'
        f'<text x="{x0 + PAD_L}" y="{y0 + 18}" font-size="12" '
        f'font-family="sans-serif" fill="#222">{caption}</text>')


def _range_labels(x0, y0, y_range):
    lo, hi = y_range
    return (
        f'<text x="{x0 + 4}" y="{y0 + PAD_T + 10}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{hi:.4g}</text>'
        f'<text x="{x0 + 4}" y="{y0 + PANEL_H - PAD_B}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{lo:.4g}</text>')


def _depth_panel(bundle, x0, y0):
    book = bundle.final_book
    levels = ([(size, "#4878b0") for size in reversed(book.buy_sizes)]
              + [(size, "#b05048") for size in book.sell_sizes])
    peak = max(size for size, _ in levels)
    inner_w = PANEL_W - PAD_L - PAD_R
    inner_h = PANEL_H - PAD_T - PAD_B
    bar_w = inner_w / len(levels)
    parts = [_panel_frame(x0, y0, "(a) final order book")]
    for i, (size, color) in enumerate(levels):
        bh = 0.0 if peak == 0 else size / peak * (inner_h - 4)
        bx = x0 + PAD_L + i * bar_w
        by = y0 + PANEL_H - PAD_B - bh
        parts.append(f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w * 0.85:.2f}" '
                     f'height="{bh:.2f}" fill="{color}"/>')
    parts.append(_range_labels(x0, y0, _axis_range([0.0, peak])))
    return "".join(parts)


def _series_panel(caption, x_text, ys, x0, y0, color):
    ys = np.asarray(ys, dtype=float)
    y_range = _axis_range(ys)
    return "".join((
        _panel_frame(x0, y0, caption),
        _polyline(x_text, ys, y_range, y0, color),
        _range_labels(x0, y0, y_range),
    ))


def series_figure(bundle: SeriesBundle) -> str:
    """Six panels: book depth, mid price, smoothed viscosity, bid/ask,
    returns, smoothed Reynolds number."""
    width = 2 * PANEL_W
    height = 3 * PANEL_H
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f'<rect width="{width}" height="{height}" fill="#fafafa"/>')
    if not len(bundle.columns["t"]):
        return (head +
                f'<text x="{width / 2}" y="{height / 2}" font-size="16" '
                f'font-family="sans-serif" text-anchor="middle" fill="#666">'
                f'no data</text></svg>')
    ts, bids, asks, mids, rets = (
        np.asarray(bundle.columns[name], dtype=float)
        for name in ("t", "bid", "ask", "mid", "ret"))
    t_range = _axis_range(ts)  # the x axis of every series panel
    # The panels are drawn one column at a time, so only one column's
    # tick text is held at once.
    x_text = _tick_text(ts, t_range, 0)
    viscosity = _series_panel("(c) smoothed viscosity", x_text, bundle.smoothed_mu,
                              0, PANEL_H, "#7048b0")
    returns = _series_panel("(e) returns", x_text, rets, 0, 2 * PANEL_H, "#48790f")
    del x_text
    x_text = _tick_text(ts, t_range, PANEL_W)
    mid = _series_panel("(b) mid price", x_text, mids, PANEL_W, 0, "#333333")
    # each quote is drawn on its own range; the labels give the joint one
    bid_ask = "".join((
        _panel_frame(PANEL_W, PANEL_H, "(d) bid / ask"),
        _polyline(x_text, bids, _axis_range(bids), PANEL_H, "#4878b0"),
        _polyline(x_text, asks, _axis_range(asks), PANEL_H, "#b05048"),
        _range_labels(PANEL_W, PANEL_H, _axis_range(np.concatenate((bids, asks)))),
    ))
    reynolds = _series_panel("(f) smoothed Reynolds number", x_text,
                             bundle.smoothed_reynolds, PANEL_W, 2 * PANEL_H, "#b07a1e")
    del x_text
    return "".join((head, _depth_panel(bundle, 0, 0), mid, viscosity, bid_ask,
                    returns, reynolds, "</svg>"))


def _heat_color(frac: float) -> str:
    # light to dark blue ramp
    lo = (247, 251, 255)
    hi = (8, 48, 107)
    r, g, b = (round(a + (c - a) * frac) for a, c in zip(lo, hi))
    return f"rgb({r},{g},{b})"


def surface_figure(grid: SurfaceGrid) -> str:
    """Heatmap of a Reynolds surface, probability on the vertical axis."""
    cell_w = max(4.0, 560.0 / max(len(grid.x_axis), 1))
    cell_h = max(3.0, 420.0 / max(len(grid.y_axis), 1))
    width = round(cell_w * len(grid.x_axis)) + 90
    height = round(cell_h * len(grid.y_axis)) + 70
    peak = max((v for row in grid.values for v in row), default=0.0)
    fixed = ", ".join(f"{k} = {v:g}" for k, v in sorted(grid.fixed_params.items()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fafafa"/>',
        f'<text x="60" y="20" font-size="12" font-family="sans-serif" '
        f'fill="#222">Reynolds surface over ({grid.x_name}, p) at {fixed}</text>',
    ]
    for i, _p in enumerate(grid.y_axis):
        # larger p drawn higher up
        y = 30 + (len(grid.y_axis) - 1 - i) * cell_h
        for j, _x in enumerate(grid.x_axis):
            frac = 0.0 if peak == 0 else grid.values[i][j] / peak
            parts.append(
                f'<rect x="{60 + j * cell_w:.2f}" y="{y:.2f}" '
                f'width="{cell_w:.2f}" height="{cell_h:.2f}" '
                f'fill="{_heat_color(frac)}"/>')
    x_lo, x_hi = grid.x_axis[0], grid.x_axis[-1]
    p_lo, p_hi = grid.y_axis[0], grid.y_axis[-1]
    base = 30 + len(grid.y_axis) * cell_h
    parts += [
        f'<text x="60" y="{base + 14:.2f}" font-size="10" '
        f'font-family="sans-serif" fill="#555">{grid.x_name} = {x_lo:g}</text>',
        f'<text x="{60 + len(grid.x_axis) * cell_w:.2f}" y="{base + 14:.2f}" '
        f'font-size="10" font-family="sans-serif" text-anchor="end" '
        f'fill="#555">{x_hi:g}</text>',
        f'<text x="8" y="{base:.2f}" font-size="10" font-family="sans-serif" '
        f'fill="#555">p = {p_lo:g}</text>',
        f'<text x="8" y="40" font-size="10" font-family="sans-serif" '
        f'fill="#555">p = {p_hi:g}</text>',
        "</svg>",
    ]
    return "".join(parts)


def write_svg(markup: str, path: str) -> None:
    _atomic_write(path, markup)
