"""Unit tests for config files, CSV output, and SVG rendering."""

import math
import xml.dom.minidom
from dataclasses import fields

import numpy as np
import pytest

from marketflow import sweep
from marketflow.book import OrderBook
from marketflow.config import (
    SimConfig,
    config_echo_lines,
    parse_config,
    parse_config_lines,
)
from marketflow.engine import SeriesBundle, run
from marketflow.io import (
    SERIES_COLUMNS,
    metadata_header,
    parse_series_header,
    write_batch_csv,
    write_grid_csv,
    write_series_csv,
)
from marketflow.physics import TickRecord
from marketflow.svg import series_figure, surface_figure, write_svg
from marketflow.sweep import (
    batch_runs,
    default_probability_grid,
    default_speed_grid,
    surface_speed,
    surface_spread,
)
from same import assert_same


class TestParseConfig:
    def test_defaults_without_file_or_flags(self):
        assert parse_config() == SimConfig()

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# reference run\n"
            "steps = 25\n"
            "collision_probability = 0.5   # mid heat\n"
            "\n"
            "h = 2.5\n")
        config = parse_config(str(path))
        assert config.steps == 25
        assert config.collision_probability == 0.5
        assert config.h == 2.5
        assert config.initial_bid == 3681

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 450\n")
        config = parse_config(str(path), {"steps": 10})
        assert config.steps == 10

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors on Windows may save UTF-8 with a BOM before the first key
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        assert parse_config(str(path)) == SimConfig(seed=3)

    @pytest.mark.parametrize("entry", ["file", "series_header", "override", "batch_cell"])
    def test_unknown_key_is_named_at_every_entry(self, tmp_path, monkeypatch, entry):
        # one key check behind each way a config is built from text or a
        # mapping; a batch builds every config first, so no run starts
        runs = []
        monkeypatch.setattr(sweep, "run", runs.append)
        cfg, series = tmp_path / "run.cfg", tmp_path / "series.csv"
        cfg.write_text("stepz = 25\n")
        series.write_text("# config-begin\n# stepz = 25\n# config-end\nt,bid\n")
        build = {
            "file": lambda: parse_config(str(cfg)),
            "series_header": lambda: parse_series_header(str(series)),
            "override": lambda: parse_config(None, {"stepz": 25}),
            "batch_cell": lambda: batch_runs(SimConfig(steps=5), [{}, {"stepz": 25}], [0]),
        }[entry]
        with pytest.raises(ValueError, match="^unknown config key: stepz$"):
            build()
        assert runs == []

    def test_unparsable_value_names_the_key(self):
        with pytest.raises(ValueError, match="steps"):
            parse_config_lines(["steps = soon"])

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="config:2"):
            parse_config_lines(["steps = 3", "what is this"])

    def test_out_of_range_value_names_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("collision_probability = 1.5\n")
        with pytest.raises(ValueError, match="collision_probability"):
            parse_config(str(path))

    def test_echo_round_trip(self):
        config = SimConfig(initial_bid=120, initial_spread=3, m=1234.56789,
                           h=2.5, collision_probability=0.123456789012345,
                           steps=77, seed=99, smoothing_window=4,
                           viscosity_clamp=1.75)
        rebuilt = SimConfig(**parse_config_lines(config_echo_lines(config)))
        assert rebuilt == config


class TestSeriesCsv:
    def test_layout_and_determinism(self, tmp_path):
        bundle = run(SimConfig(steps=30, seed=5))
        path = tmp_path / "series.csv"
        write_series_csv(bundle, str(path))
        first = path.read_bytes()
        write_series_csv(bundle, str(path))
        assert_same(path.read_bytes(), first)

        lines = first.decode().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert lines[0] == "# config-begin"
        assert "# generator = numpy PCG64" in meta
        assert data[0] == SERIES_COLUMNS
        assert len(data) == 31
        for row in data[1:]:
            assert len(row.split(",")) == 14
            assert row.split(",")[-1] in ("laminar", "transitional", "turbulent")
        assert not (tmp_path / "series.csv.tmp").exists()

    def test_passive_run_prints_inf_viscosity(self, tmp_path):
        bundle = run(SimConfig(collision_probability=0.0, steps=10, seed=1))
        path = tmp_path / "series.csv"
        write_series_csv(bundle, str(path))
        rows = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert all(row.split(",")[9] == "inf" for row in rows)

    def test_header_recovers_the_config(self, tmp_path):
        config = SimConfig(steps=12, seed=8, h=2.5, collision_probability=0.35)
        path = tmp_path / "series.csv"
        write_series_csv(run(config), str(path))
        assert parse_series_header(str(path)) == config

    def test_header_reruns_to_the_same_bytes(self, tmp_path):
        # An int in a float field is stored as a float, so the header
        # echoes 134217729.0 and the rerun from it uses the same h; at
        # this h an int gives other kernel weights than its float.
        config = SimConfig(h=2**27 + 1, steps=450, collision_probability=0.5)
        assert type(config.h) is float
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(run(config), str(first))
        write_series_csv(run(parse_series_header(str(first))), str(second))
        assert "# h = 134217729.0\n" in first.read_text()
        assert_same(first.read_bytes(), second.read_bytes())

    def test_header_required(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("t,bid\n0,10\n")
        with pytest.raises(ValueError):
            parse_series_header(str(path))


class TestGridCsv:
    def test_row_count_and_corner_pin(self, tmp_path):
        grid = surface_speed(default_speed_grid(), default_probability_grid(),
                             l=1.0)
        path = tmp_path / "surface.csv"
        write_grid_csv(grid, str(path))
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "v_t,p,reynolds"
        assert len(data) == 1 + 41 * 100
        # hottest corner: 25 * 99 * 1
        assert data[-1] == "5.000000,0.990000,2475.000000"
        assert abs(grid.values[-1][-1] - 2475.0) <= 1e-9 * 2475.0

    def test_zero_probability_rows_are_zero(self, tmp_path):
        grid = surface_speed([1.0, 2.0], [0.0], l=1.0)
        path = tmp_path / "surface.csv"
        write_grid_csv(grid, str(path))
        data = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert all(ln.endswith(",0.000000") for ln in data)

    def test_every_infinity_is_written_inf(self, tmp_path):
        grid = surface_speed([-math.inf, 1.0], [0.5], l=1.0)
        path = tmp_path / "surface.csv"
        write_grid_csv(grid, str(path))
        data = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert data == ["inf,0.500000,inf", "1.000000,0.500000,1.000000"]


class TestBatchCsv:
    def test_rows_and_error_column(self, tmp_path):
        base = SimConfig(steps=10)
        cells = [{"initial_spread": 1}, {"initial_bid": 10}]
        summaries = batch_runs(base, cells, seeds=[0, 1])
        path = tmp_path / "batch.csv"
        write_batch_csv(summaries, str(path))
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 5
        good = data[1].split(",")
        bad = data[3].split(",")
        assert good[-1] == ""
        assert good[5] != ""
        assert bad[-1].startswith("tick 0: price floor")
        assert bad[5:11] == [""] * 6

    def test_infinite_statistics_are_written_inf(self, tmp_path):
        # at P = 1 every moving tick's Reynolds number is +inf
        config = SimConfig(collision_probability=1.0, steps=50)
        summaries = batch_runs(config, [{}], [0])
        path = tmp_path / "batch.csv"
        write_batch_csv(summaries, str(path))
        assert (path.read_text().splitlines()[-1]
                == "1.0,1,3681,50,0,0.607257,inf,inf,13,0,37,")


class TestMetadataHeader:
    def test_block_shape(self):
        lines = metadata_header(SimConfig())
        assert lines[0] == "# config-begin"
        assert "# config-end" in lines
        assert lines[-1].startswith("# version = ")
        assert all(ln.startswith("# ") for ln in lines)


class TestSvg:
    def test_series_figure_is_wellformed_with_six_panels(self):
        bundle = run(SimConfig(steps=40, seed=3))
        markup = b"".join(series_figure(bundle)).decode()
        xml.dom.minidom.parseString(markup)
        for label in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)"):
            assert label in markup

    def test_series_figure_is_deterministic(self):
        bundle = run(SimConfig(steps=40, seed=3))
        assert_same(b"".join(series_figure(bundle)), b"".join(series_figure(bundle)))

    def test_empty_series_renders_empty_panels(self):
        config = SimConfig()
        empty = SeriesBundle(columns={f.name: np.empty(0) for f in fields(TickRecord)},
                             smoothed_mu=[], smoothed_reynolds=[],
                             config=config,
                             final_book=OrderBook(config))
        markup = b"".join(series_figure(empty)).decode()
        xml.dom.minidom.parseString(markup)
        for label in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)"):
            assert label in markup
        assert "<polyline" not in markup

    def test_surface_figure_is_wellformed(self):
        grid = surface_speed(default_speed_grid(), default_probability_grid())
        markup = b"".join(surface_figure(grid)).decode()
        xml.dom.minidom.parseString(markup)
        assert "Reynolds surface" in markup

    def test_surface_figure_draws_a_non_finite_cell_darkest(self):
        # the grid write_grid_csv writes as inf and nan cells: the ramp
        # runs to the largest finite value, and a non-finite cell is drawn
        # at its dark end
        grid = surface_speed([-math.inf, 1.0], [0.0, 0.5], l=1.0)
        assert str(grid.values) == "[[nan, 0.0], [inf, 1.0]]"
        doc = xml.dom.minidom.parseString(b"".join(surface_figure(grid)))
        fills = [rect.getAttribute("fill") for rect in doc.getElementsByTagName("rect")]
        # the first rect is the background; then row by row, p ascending
        assert fills[1:] == ["rgb(8,48,107)", "rgb(247,251,255)",
                             "rgb(8,48,107)", "rgb(8,48,107)"]
        # a cell below zero is drawn at the light end, in range
        grid = surface_spread([-2.0, 1.0], [0.0, 0.5])
        assert str(grid.values) == "[[-0.0, 0.0], [-2.0, 1.0]]"
        doc = xml.dom.minidom.parseString(b"".join(surface_figure(grid)))
        fills = [rect.getAttribute("fill") for rect in doc.getElementsByTagName("rect")]
        for fill in fills[1:]:
            assert all(0 <= int(c) <= 255 for c in fill[4:-1].split(","))
        assert fills[3] == "rgb(247,251,255)"

    def test_infinite_values_do_not_break_the_line_charts(self):
        bundle = run(SimConfig(collision_probability=0.0, steps=10, seed=1))
        xml.dom.minidom.parseString(b"".join(series_figure(bundle)))

    def test_write_svg_is_atomic(self, tmp_path):
        path = tmp_path / "fig.svg"
        write_svg([b"<svg xmlns='http://www.w3.org/2000/svg'>", b"</svg>"], str(path))
        assert path.read_text() == "<svg xmlns='http://www.w3.org/2000/svg'></svg>"
        assert not (tmp_path / "fig.svg.tmp").exists()
