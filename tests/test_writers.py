"""Byte pins for the two per-run writers, `series.csv` and `series.svg`.

Each case drives one branch of the writers:
- P = 1 at window 1: the smoothed Reynolds series mixes finite values
  with infinities, so the polyline skips the non-finite points;
- P = 1 at the default window: that series is all infinite, so its
  polyline is empty and its axis range falls back to [0, 1];
- P = 0: the mid never moves, so its axis range is widened around a
  single value;
- a one-tick run, and a 2000-tick run at P = 0.5.

`tests/test_golden.py` pins `series.csv` only; perfbench pins
`series.svg` for one 20k-tick run. Two-decimal coordinates hide a
one-ulp change, so the figure's coordinates are also compared with the
scalar formula, double for double.

The writers format whole columns with numpy and write `series.csv` in
blocks; their bytes are also compared with reference writers that
format every row and every point on its own, at each block seam.
"""

import hashlib
import math
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from marketflow import io, svg
from marketflow.book import OrderBook
from marketflow.cli import main
from marketflow.config import SimConfig
from marketflow.engine import SeriesBundle, run
from marketflow.io import _BLOCK, write_series_csv
from marketflow.numfmt import formatted
from marketflow.physics import REGIMES, FlowRegime, TickRecord
from same import assert_same

# (seed, P, window, steps) -> (series.csv sha256, series.svg sha256)
WRITER_SHA256 = {
    (1, 1.0, 1, 300): (
        "df49bffc7f9fd652bc30524e8064ef2eb2eaf2997acd0ed3c7702f402d446c50",
        "0a43e603e85d18bab126c57ff9de8f733ff4b71db3eb613b4530faf69d905ced"),
    (1, 1.0, 20, 300): (
        "22a205bd233a9502baf2fb14ab3eff83ba5d3887104aa35e2b5e17f84244c42a",
        "fc69aec3959c2e46d69578dd6d533006d7979bf701a20b0d6b5ef2fb2646ecbc"),
    (0, 0.0, 20, 300): (
        "f0e98a0f97dcee9946e978878bac5c30f46a1fa8b4e2539c04f982ca20396da2",
        "8ed3874b93fdad18a72829c43926bac2891b5a5e49a2807b0bba368a050e3242"),
    (0, 0.5, 20, 1): (
        "1e727f4c2dcce5a33d217eb9965affc06f952ade673d848c47bbb394f0555ffa",
        "cc622f21e698838d51f7431ab5cb20b161236c04abfb40370e19f3904a051b78"),
    (3, 0.5, 20, 2000): (
        "616ebd5dd6193f3a166b9106bbfa041bff4224f2b33b01759110596053d44938",
        "4149288c0337e84b95f6b106717468ac83d003ae8cb8afe47744cd2b871fbdba"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,p,window,steps", sorted(WRITER_SHA256))
def test_series_csv_and_svg_bytes(tmp_path, seed, p, window, steps):
    code = main(["simulate", "--seed", str(seed), "--collision-probability", str(p),
                 "--window", str(window), "--steps", str(steps), "--svg",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (_sha256(tmp_path / "series.csv"),
            _sha256(tmp_path / "series.svg")) == WRITER_SHA256[seed, p, window, steps]


def test_pinned_cases_reach_their_branches():
    def inf_count(window):
        bundle = run(SimConfig(seed=1, collision_probability=1.0, steps=300,
                               smoothing_window=window))
        return sum(map(math.isinf, bundle.smoothed_reynolds))

    assert 0 < inf_count(1) < 300
    assert inf_count(20) == 300
    still = run(SimConfig(seed=0, collision_probability=0.0, steps=300))
    assert len({r.mid for r in still.ticks}) == 1


def test_infinities_are_spelled_inf_and_nan_stays_nan(tmp_path):
    config = SimConfig(steps=1)
    row = (0, 10, 12, 11.0, -math.inf, math.inf, 2, math.nan,
           math.inf, 0.0, -math.inf, REGIMES.index(FlowRegime.LAMINAR))
    columns = {f.name: np.array([value])
               for f, value in zip(fields(TickRecord), row)}
    bundle = SeriesBundle(columns=columns, smoothed_mu=[-math.inf],
                          smoothed_reynolds=[math.nan], config=config,
                          final_book=OrderBook(config))
    path = tmp_path / "series.csv"
    write_series_csv(bundle, str(path))
    row = path.read_text().splitlines()[-1]
    assert row == ("0,10,12,11.000000,inf,inf,2,nan,0.000000,inf,inf,"
                   "inf,nan,laminar")


def _hand_bundle(steps):
    """A bundle of `steps` ticks built by hand, every cell finite: integer
    columns count up, the others are uniform in (-1000, 1000)."""
    rng = np.random.default_rng(steps)
    config = SimConfig(steps=steps)
    columns = {f.name: rng.uniform(-1e3, 1e3, steps) for f in fields(TickRecord)}
    for name in ("t", "bid", "ask", "spread"):
        columns[name] = np.arange(steps)
    columns["regime"] = rng.integers(len(REGIMES), size=steps)
    return SeriesBundle(columns=columns, smoothed_mu=rng.uniform(-1e3, 1e3, steps),
                        smoothed_reynolds=rng.uniform(-1e3, 1e3, steps),
                        config=config, final_book=OrderBook(config))


def test_a_minus_inf_in_the_last_block_is_written_inf(tmp_path):
    # the run's only -inf is in its third block, so a writer that looked
    # for one in the first block alone would leave it as "-inf"
    bundle = _hand_bundle(2 * _BLOCK + 1)
    bundle.columns["ret"][-1] = -math.inf
    path = tmp_path / "series.csv"
    write_series_csv(bundle, str(path))
    text = path.read_bytes()
    assert b"-inf" not in text
    assert text.splitlines()[-1].split(b",")[4] == b"inf"


def test_the_writer_peak_does_not_grow_with_the_run(tmp_path):
    # series.csv is streamed in blocks, so twice the ticks must not raise
    # the writer's peak by more than 10%; an O(n) writer would double it
    peaks = []
    for steps in (4 * _BLOCK, 8 * _BLOCK):
        bundle = _hand_bundle(steps)
        path = str(tmp_path / f"{steps}.csv")
        write_series_csv(bundle, path)  # the first call fills numfmt's caches
        tracemalloc.start()
        try:
            write_series_csv(bundle, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_points_are_the_doubles_of_the_scalar_formula():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1e3, 1e3, 4000)
    ys = rng.normal(0.0, 1e-3, 4000) * rng.uniform(1.0, 1e6, 4000)
    ys[::7] = math.inf
    ys[::11] = -math.inf
    xs[::13] = math.nan
    x_range, y_range = svg._axis_range(xs), svg._axis_range(ys)
    finite_ys = [y for y in ys.tolist() if math.isfinite(y)]
    assert y_range == (min(finite_ys), max(finite_ys))

    (lo_x, hi_x), (lo_y, hi_y) = x_range, y_range
    x0, y0 = svg.PANEL_W, 2 * svg.PANEL_H
    inner_w = svg.PANEL_W - svg.PAD_L - svg.PAD_R
    inner_h = svg.PANEL_H - svg.PAD_T - svg.PAD_B
    expected = [
        [x0 + svg.PAD_L + (x - lo_x) / (hi_x - lo_x) * inner_w,
         y0 + svg.PANEL_H - svg.PAD_B - (y - lo_y) / (hi_y - lo_y) * inner_h]
        for x, y in zip(xs.tolist(), ys.tolist())
        if math.isfinite(x) and math.isfinite(y)]
    keep = np.isfinite(xs) & np.isfinite(ys)
    points = np.stack((svg._scale(xs, x_range, x0 + svg.PAD_L, inner_w)[keep],
                       svg._scale(ys, y_range, y0 + svg.PANEL_H - svg.PAD_B,
                                  -inner_h)[keep]), axis=1)
    assert points.tolist() == expected


@pytest.mark.filterwarnings("error")
def test_a_constant_series_past_2_53_has_a_range(tmp_path):
    # there 0.5 is below half a unit, so widening by it gives the same
    # double, and the panel would divide 0 by 0
    lo, hi = svg._axis_range([1.476e20])
    assert lo < 1.476e20 < hi
    # one full fill at P just below 1 across a 65536-tick spread: the
    # smoothed Reynolds series is one value, about 1.476e20
    assert main(["simulate", "--steps", "1", "--collision-probability",
                 "0.9999999999999999", "--spread", "65536", "--svg",
                 "--out", str(tmp_path)]) == 0
    assert b"nan" not in (tmp_path / "series.svg").read_bytes()


# The writers with one `%` call per row and per polyline, kept as
# references for the bytes.
_SERIES_ROW = "%d,%d,%d" + ",%.6f" * 3 + ",%d" + ",%.6f" * 6 + ",%s\n"


def _reference_series_csv(bundle):
    columns = bundle.columns
    rows = "".join(_SERIES_ROW % row for row in zip(
        *[columns[name].tolist() for name in ("t", "bid", "ask", "mid", "ret", "v_t",
                                              "spread", "volume", "p_hat", "mu")],
        bundle.smoothed_mu.tolist(), columns["reynolds"].tolist(),
        bundle.smoothed_reynolds.tolist(),
        [REGIMES[i].value for i in columns["regime"].tolist()]))
    header = "\n".join(io.metadata_header(bundle.config) + [io.SERIES_COLUMNS])
    return (header + "\n" + rows.replace("-inf", "inf")).encode()


def _reference_polyline(xs, ys, x_range, y_range, x0, y0, color):
    lo_x, hi_x = x_range
    lo_y, hi_y = y_range
    inner_w = svg.PANEL_W - svg.PAD_L - svg.PAD_R
    inner_h = svg.PANEL_H - svg.PAD_T - svg.PAD_B
    keep = np.isfinite(xs) & np.isfinite(ys)
    pts = np.empty((int(keep.sum()), 2))
    pts[:, 0] = (x0 + svg.PAD_L) + (xs[keep] - lo_x) / (hi_x - lo_x) * inner_w
    pts[:, 1] = ((y0 + svg.PANEL_H - svg.PAD_B)
                 - (ys[keep] - lo_y) / (hi_y - lo_y) * inner_h)
    if not len(pts):
        return b""
    points = " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points}"/>').encode()


def _reference_series_figure(bundle):
    width, height = 2 * svg.PANEL_W, 3 * svg.PANEL_H
    ts, bids, asks, mids, rets = (
        np.asarray(bundle.columns[name], dtype=float)
        for name in ("t", "bid", "ask", "mid", "ret"))
    t_range = svg._axis_range(ts)

    def panel(caption, lines, label_range, x0, y0):
        return b"".join((
            svg._panel_frame(x0, y0, caption),
            *[_reference_polyline(ts, ys, t_range, svg._axis_range(ys), x0, y0, color)
              for ys, color in lines],
            svg._range_labels(x0, y0, label_range)))

    def one(caption, ys, x0, y0, color):
        ys = np.asarray(ys, dtype=float)
        return panel(caption, [(ys, color)], svg._axis_range(ys), x0, y0)

    W, H = svg.PANEL_W, svg.PANEL_H
    return b"".join((
        (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
         f'height="{height}" viewBox="0 0 {width} {height}">'
         f'<rect width="{width}" height="{height}" fill="#fafafa"/>').encode(),
        svg._depth_panel(bundle, 0, 0),
        one("(b) mid price", mids, W, 0, "#333333"),
        one("(c) smoothed viscosity", bundle.smoothed_mu, 0, H, "#7048b0"),
        panel("(d) bid / ask", [(bids, "#4878b0"), (asks, "#b05048")],
              svg._axis_range(np.concatenate((bids, asks))), W, H),
        one("(e) returns", rets, 0, 2 * H, "#48790f"),
        one("(f) smoothed Reynolds number", bundle.smoothed_reynolds, W, 2 * H,
            "#b07a1e"),
        b"</svg>"))


@pytest.mark.parametrize("config", [
    *[SimConfig(seed=2, collision_probability=0.5, steps=steps)
      for steps in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)],
    SimConfig(seed=1, collision_probability=1.0, smoothing_window=1, steps=300),
], ids=lambda config: f"P{config.collision_probability}-w{config.smoothing_window}"
                      f"-n{config.steps}")
def test_writers_match_the_per_value_references(tmp_path, config):
    bundle = run(config)
    path = tmp_path / "series.csv"
    write_series_csv(bundle, str(path))
    assert_same(path.read_bytes(), _reference_series_csv(bundle))
    assert_same(b"".join(svg.series_figure(bundle)), _reference_series_figure(bundle))


def test_polylines_match_the_per_point_reference():
    rng = np.random.default_rng(7)
    ts = np.arange(3000, dtype=float)
    ys = rng.normal(0.0, 1.0, 3000) * rng.uniform(1.0, 1e6, 3000)
    ys[::5] = np.round(ys[::5], 1)  # repeats
    ys[::7] = math.inf
    ys[::11] = -math.inf
    ys[::13] = math.nan
    ys[::17] = -0.0
    t_range, y_range = svg._axis_range(ts), svg._axis_range(ys)
    inner_w = svg.PANEL_W - svg.PAD_L - svg.PAD_R
    for x0 in (0, svg.PANEL_W):
        # the x columns of every tick, as series_figure makes them per column
        x_words = formatted(svg._scale(ts, t_range, x0 + svg.PAD_L, inner_w), "%.2f,")
        assert_same(svg._polyline(x_words, ys, y_range, svg.PANEL_H, "#333333"),
                    _reference_polyline(ts, ys, t_range, y_range, x0, svg.PANEL_H,
                                        "#333333"))


def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    bundle = run(SimConfig(seed=2, collision_probability=0.5, steps=2 * _BLOCK + 3))
    path = tmp_path / "series.csv"
    path.write_text("the old file\n")
    per_block = len(io._SERIES)  # one formatted call per column and block
    formatted, calls = io.formatted, []

    def failing(values, fmt):
        calls.append((values[0], len(values), fmt))
        if len(calls) > per_block:
            raise RuntimeError("formatting failed")
        return formatted(values, fmt)

    monkeypatch.setattr(io, "formatted", failing)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_series_csv(bundle, str(path))
    # the first column of the second block: tick _BLOCK
    assert len(calls) == per_block + 1
    assert calls[-1] == (_BLOCK, _BLOCK, "%.0f,")
    assert path.read_text() == "the old file\n"
    assert os.listdir(tmp_path) == ["series.csv"]


def test_a_temporary_that_cannot_be_removed_keeps_the_first_error(tmp_path, monkeypatch):
    bundle = run(SimConfig(seed=2, steps=10))
    path = tmp_path / "series.csv"
    path.write_text("the old file\n")

    def failing(values, fmt):
        raise RuntimeError("formatting failed")

    def unremovable(name):
        raise OSError(f"cannot remove {name}")

    monkeypatch.setattr(io, "formatted", failing)
    monkeypatch.setattr(io.os, "remove", unremovable)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_series_csv(bundle, str(path))
    assert path.read_text() == "the old file\n"
    assert sorted(os.listdir(tmp_path)) == ["series.csv", "series.csv.tmp"]


def test_a_failed_svg_write_leaves_no_temporary(tmp_path):
    path = tmp_path / "series.svg"
    with pytest.raises(TypeError):
        svg.write_svg(None, str(path))
    assert os.listdir(tmp_path) == []


def test_a_figure_that_fails_midway_leaves_the_old_svg_and_no_temporary(
        tmp_path, monkeypatch):
    bundle = run(SimConfig(seed=2, collision_probability=0.5, steps=300))
    path = tmp_path / "series.svg"
    path.write_text("the old file\n")
    open_temporary = []

    def failing(values, fmt):
        open_temporary.append((tmp_path / "series.svg.tmp").exists())
        # the calls: both columns' x text, then panel (b)'s and (c)'s y text
        if len(open_temporary) == 4:
            raise RuntimeError("drawing failed")
        return formatted(values, fmt)

    monkeypatch.setattr(svg, "formatted", failing)
    with pytest.raises(RuntimeError, match="drawing failed"):
        svg.write_svg(svg.series_figure(bundle), str(path))
    # the figure is drawn inside the write, after the temporary is opened
    assert open_temporary == [True] * 4
    assert path.read_text() == "the old file\n"
    assert os.listdir(tmp_path) == ["series.svg"]


# The tracemalloc peak of writing series.svg, in bytes per tick, on the
# P = 0.5, window-200 bundle of `test_the_svg_writer_peak_per_tick`. It
# reads 134 with each part written as it is drawn, 187 when the whole
# markup is joined before the write (numpy 2.4, Python 3.11).
SVG_PEAK_PER_TICK = 150


def test_the_svg_writer_peak_per_tick(tmp_path):
    steps = 4 * _BLOCK
    bundle = run(SimConfig(seed=0, collision_probability=0.5, smoothing_window=200,
                           steps=steps))
    path = str(tmp_path / "series.svg")
    svg.write_svg(svg.series_figure(bundle), path)  # the first call fills numfmt's caches
    tracemalloc.start()
    try:
        svg.write_svg(svg.series_figure(bundle), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SVG_PEAK_PER_TICK * steps, peak / steps
