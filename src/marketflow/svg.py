"""Static SVG figures for runs and surfaces.

A figure is a sequence of markup parts in file order, each a bytes
object, with fixed two-decimal coordinates, so the same input always
yields byte-identical markup; `write_svg` writes each part as it is
drawn, as it is, so a series figure is never held whole and no part is
decoded or encoded again.
Series coordinates are computed with numpy, one array operation per
step of the scalar formula and in Python's operation order; numpy's
elementwise float64 arithmetic rounds like Python's, so every
coordinate is the double the scalar formula gives.
Coordinates are formatted by `numfmt.formatted` and set into the
markup as `numfmt.joined` gives them, as bytes, which are those of
`%.2f` applied to each point on its own.
The CSV files stay canonical; these figures are a quick visual check.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .engine import SeriesBundle
from .io import _atomic_write_chunks
from .numfmt import formatted, joined
from .sweep import SurfaceGrid

PANEL_W = 380
PANEL_H = 230
PAD_L = 46
PAD_R = 12
PAD_T = 28
PAD_B = 20


def _axis_range(values):
    """The finite min and max, widened by 0.5 each way when they meet,
    or to the neighbouring doubles where 0.5 is too small to move them
    (from 2**52 on); (0, 1) when no value is finite.

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
        if lo == hi:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _scale(values, value_range, origin, span):
    """origin + (v - lo) / (hi - lo) * span for each v, grouped as Python
    groups it; value_range is `_axis_range` of the series. The y axis
    passes a negative span, since SVG's y grows downwards."""
    lo, hi = value_range
    return origin + (values - lo) / (hi - lo) * span


def _polyline(x_words, ys, y_range, y0, color):
    """The ticks with a finite y as one polyline in a panel at height y0;
    `x_words` holds the `formatted` x columns of every tick, which are
    the same for each panel of a column. Ticks are integers, so every x
    is finite."""
    keep = np.isfinite(ys)
    if not keep.any():
        return b""
    if not keep.all():
        x_words = [column[keep] if np.ndim(column) else column for column in x_words]
        ys = ys[keep]
    inner_h = PANEL_H - PAD_T - PAD_B
    points = joined([*x_words, *formatted(
        _scale(ys, y_range, y0 + PANEL_H - PAD_B, -inner_h), "%.2f ")])
    head = f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="'
    # the points but the last one's trailing space, copied once, into the part
    return b"".join((head.encode(), memoryview(points)[:-1], b'"/>'))


def _panel_frame(x0, y0, caption):
    return (
        f'<rect x="{x0 + PAD_L}" y="{y0 + PAD_T}" '
        f'width="{PANEL_W - PAD_L - PAD_R}" height="{PANEL_H - PAD_T - PAD_B}" '
        f'fill="white" stroke="#888" stroke-width="0.8"/>'
        f'<text x="{x0 + PAD_L}" y="{y0 + 18}" font-size="12" '
        f'font-family="sans-serif" fill="#222">{caption}</text>').encode()


def _range_labels(x0, y0, y_range):
    lo, hi = y_range
    return (
        f'<text x="{x0 + 4}" y="{y0 + PAD_T + 10}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{hi:.4g}</text>'
        f'<text x="{x0 + 4}" y="{y0 + PANEL_H - PAD_B}" font-size="9" '
        f'font-family="sans-serif" fill="#555">{lo:.4g}</text>').encode()


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
                     f'height="{bh:.2f}" fill="{color}"/>'.encode())
    parts.append(_range_labels(x0, y0, _axis_range([0.0, peak])))
    return b"".join(parts)


def _series_panel(x_words, caption, x0, y0, *lines):
    """The parts of a panel at (x0, y0) with one polyline per (ys, color),
    each drawn on its own `_axis_range` over the column's `x_words`. The
    labels give `_axis_range` of all the lines together, which for one
    line is that line's own range.

    For the two quotes of panel (d) the drawn and labelled ranges differ
    (see the panel (d) FOUND in CHANGES.md): drawing every line on the
    labelled range would fix it, and change the pinned bytes.
    """
    lines = [(np.asarray(ys, dtype=float), color) for ys, color in lines]
    yield _panel_frame(x0, y0, caption)
    for ys, color in lines:
        yield _polyline(x_words, ys, _axis_range(ys), y0, color)
    yield _range_labels(x0, y0, _axis_range(np.concatenate([ys for ys, _ in lines])))


def _svg_head(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f'<rect width="{width}" height="{height}" fill="#fafafa"/>')


def series_figure(bundle: SeriesBundle) -> Iterator[bytes]:
    """Six panels: book depth, mid price, smoothed viscosity, bid/ask,
    returns, smoothed Reynolds number, as markup parts in file order,
    each drawn when it is asked for. A bundle with no ticks, which `run`
    never returns, gives five empty series panels."""
    columns = bundle.columns
    ts = np.asarray(columns["t"], dtype=float)
    t_range = _axis_range(ts)  # the x axis of every series panel
    inner_w = PANEL_W - PAD_L - PAD_R
    # each panel column's x columns, formatted once for all its panels
    x_words = {x0: formatted(_scale(ts, t_range, x0 + PAD_L, inner_w), "%.2f,")
               for x0 in (0, PANEL_W)}
    panels = (
        ("(b) mid price", PANEL_W, 0, (columns["mid"], "#333333")),
        ("(c) smoothed viscosity", 0, PANEL_H, (bundle.smoothed_mu, "#7048b0")),
        ("(d) bid / ask", PANEL_W, PANEL_H,
         (columns["bid"], "#4878b0"), (columns["ask"], "#b05048")),
        ("(e) returns", 0, 2 * PANEL_H, (columns["ret"], "#48790f")),
        ("(f) smoothed Reynolds number", PANEL_W, 2 * PANEL_H,
         (bundle.smoothed_reynolds, "#b07a1e")),
    )
    yield _svg_head(2 * PANEL_W, 3 * PANEL_H).encode()
    yield _depth_panel(bundle, 0, 0)
    for caption, x0, y0, *lines in panels:
        yield from _series_panel(x_words[x0], caption, x0, y0, *lines)
    yield b"</svg>"


def _heat_color(frac: float) -> str:
    # light to dark blue ramp
    lo = (247, 251, 255)
    hi = (8, 48, 107)
    r, g, b = (round(a + (c - a) * frac) for a, c in zip(lo, hi))
    return f"rgb({r},{g},{b})"


def surface_figure(grid: SurfaceGrid) -> list[bytes]:
    """Heatmap of a Reynolds surface, probability on the vertical axis,
    as a list of markup parts in file order. The ramp runs from 0 up to
    the largest finite value; a cell below zero is drawn at its light end
    and a non-finite cell at its dark end."""
    cell_w = max(4.0, 560.0 / len(grid.x_axis))
    cell_h = max(3.0, 420.0 / len(grid.y_axis))
    width = round(cell_w * len(grid.x_axis)) + 90
    height = round(cell_h * len(grid.y_axis)) + 70
    peak = max((v for row in grid.values for v in row if math.isfinite(v)), default=0.0)
    fixed = ", ".join(f"{k} = {v:g}" for k, v in sorted(grid.fixed_params.items()))
    parts = [
        _svg_head(width, height),
        f'<text x="60" y="20" font-size="12" font-family="sans-serif" '
        f'fill="#222">Reynolds surface over ({grid.x_name}, p) at {fixed}</text>',
    ]
    for i, _p in enumerate(grid.y_axis):
        # larger p drawn higher up
        y = 30 + (len(grid.y_axis) - 1 - i) * cell_h
        for j, v in enumerate(grid.values[i]):
            # in [0, 1]: no finite v exceeds peak, and one below 0 is clamped
            frac = 1.0 if not math.isfinite(v) else max(v / peak, 0.0) if peak > 0 else 0.0
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
    return [part.encode() for part in parts]


def write_svg(parts, path: str) -> None:
    """Write the bytes parts of a figure to `path` atomically, each as it
    is and before the next is asked for; a figure that raises midway
    leaves `path` as it was."""
    _atomic_write_chunks(path, parts)
