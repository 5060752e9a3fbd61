"""Static SVG figures for runs and surfaces.

Charts are assembled as plain strings with fixed two-decimal
coordinates, so the same input always yields byte-identical markup.
The CSV files stay canonical; these figures are a quick visual check.
"""

from __future__ import annotations

import math

from .book import Side
from .engine import SeriesBundle
from .io import _atomic_write
from .sweep import SurfaceGrid

PANEL_W = 380
PANEL_H = 230
PAD_L = 46
PAD_R = 12
PAD_T = 28
PAD_B = 20


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def _axis_range(values):
    vals = _finite(values)
    if not vals:
        return 0.0, 1.0
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    return lo, hi


def _polyline(xs, ys, x0, y0, color):
    lo_x, hi_x = _axis_range(xs)
    lo_y, hi_y = _axis_range(ys)
    inner_w = PANEL_W - PAD_L - PAD_R
    inner_h = PANEL_H - PAD_T - PAD_B
    pts = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        px = x0 + PAD_L + (x - lo_x) / (hi_x - lo_x) * inner_w
        py = y0 + PANEL_H - PAD_B - (y - lo_y) / (hi_y - lo_y) * inner_h
        pts.append(f"{px:.2f},{py:.2f}")
    if not pts:
        return ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{" ".join(pts)}"/>')


def _panel_frame(x0, y0, caption):
    return (
        f'<rect x="{x0 + PAD_L}" y="{y0 + PAD_T}" '
        f'width="{PANEL_W - PAD_L - PAD_R}" height="{PANEL_H - PAD_T - PAD_B}" '
        f'fill="white" stroke="#888" stroke-width="0.8"/>'
        f'<text x="{x0 + PAD_L}" y="{y0 + 18}" font-size="12" '
        f'font-family="sans-serif" fill="#222">{caption}</text>')


def _range_labels(x0, y0, values):
    lo, hi = _axis_range(values)
    return (
        f'<text x="{x0 + 4}" y="{y0 + PAD_T + 10}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{hi:.4g}</text>'
        f'<text x="{x0 + 4}" y="{y0 + PANEL_H - PAD_B}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{lo:.4g}</text>')


def _depth_panel(bundle, x0, y0):
    book = bundle.final_book
    buys = list(reversed(book.levels(Side.BUY)))
    sells = book.levels(Side.SELL)
    levels = [(lv, "#4878b0") for lv in buys] + [(lv, "#b05048") for lv in sells]
    peak = max(lv.size for lv, _ in levels)
    inner_w = PANEL_W - PAD_L - PAD_R
    inner_h = PANEL_H - PAD_T - PAD_B
    bar_w = inner_w / len(levels)
    parts = [_panel_frame(x0, y0, "(a) final order book")]
    for i, (lv, color) in enumerate(levels):
        bh = 0.0 if peak == 0 else lv.size / peak * (inner_h - 4)
        bx = x0 + PAD_L + i * bar_w
        by = y0 + PANEL_H - PAD_B - bh
        parts.append(f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w * 0.85:.2f}" '
                     f'height="{bh:.2f}" fill="{color}"/>')
    parts.append(_range_labels(x0, y0, [0.0, peak]))
    return "".join(parts)


def _series_panel(caption, ts, ys, x0, y0, color):
    return "".join((
        _panel_frame(x0, y0, caption),
        _polyline(ts, ys, x0, y0, color),
        _range_labels(x0, y0, ys),
    ))


def series_figure(bundle: SeriesBundle) -> str:
    """Six panels: book depth, mid price, smoothed viscosity, bid/ask,
    returns, smoothed Reynolds number."""
    width = 2 * PANEL_W
    height = 3 * PANEL_H
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f'<rect width="{width}" height="{height}" fill="#fafafa"/>')
    if not bundle.ticks:
        return (head +
                f'<text x="{width / 2}" y="{height / 2}" font-size="16" '
                f'font-family="sans-serif" text-anchor="middle" fill="#666">'
                f'no data</text></svg>')
    ts = [float(r.t) for r in bundle.ticks]
    bids = [float(r.bid) for r in bundle.ticks]
    asks = [float(r.ask) for r in bundle.ticks]
    bid_ask = "".join((
        _panel_frame(PANEL_W, PANEL_H, "(d) bid / ask"),
        _polyline(ts, bids, PANEL_W, PANEL_H, "#4878b0"),
        _polyline(ts, asks, PANEL_W, PANEL_H, "#b05048"),
        _range_labels(PANEL_W, PANEL_H, bids + asks),
    ))
    body = "".join((
        _depth_panel(bundle, 0, 0),
        _series_panel("(b) mid price", ts, [r.mid for r in bundle.ticks],
                      PANEL_W, 0, "#333333"),
        _series_panel("(c) smoothed viscosity", ts, bundle.smoothed_mu,
                      0, PANEL_H, "#7048b0"),
        bid_ask,
        _series_panel("(e) returns", ts, [r.ret for r in bundle.ticks],
                      0, 2 * PANEL_H, "#48790f"),
        _series_panel("(f) smoothed Reynolds number", ts, bundle.smoothed_reynolds,
                      PANEL_W, 2 * PANEL_H, "#b07a1e"),
    ))
    return head + body + "</svg>"


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
