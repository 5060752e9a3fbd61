"""End-to-end tests of the command line interface."""

import re
from collections import Counter

import pytest

from marketflow import cli, sweep
from marketflow.cli import build_parser, main
from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.io import _BLOCK, parse_series_header
from same import assert_same


def _rows(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")][1:]


def test_parser_covers_all_config_flags():
    args = build_parser().parse_args([
        "simulate", "--seed", "3", "--steps", "5",
        "--collision-probability", "0.4", "--spread", "2", "--bid", "100",
        "--mass", "1500", "--smoothing-length", "8", "--window", "10",
        "--out", "x", "--svg"])
    assert args.seed == 3
    assert args.steps == 5
    assert args.collision_probability == 0.4
    assert args.initial_spread == 2
    assert args.initial_bid == 100
    assert args.m == 1500.0
    assert args.h == 8.0
    assert args.smoothing_window == 10
    assert args.svg is True


def test_simulate_writes_series(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--out", str(out), "--steps", "25", "--seed", "2"])
    assert code == 0
    rows = _rows(out / "series.csv")
    assert len(rows) == 25
    config = parse_series_header(str(out / "series.csv"))
    assert config.steps == 25
    assert config.seed == 2


def test_simulate_prints_the_final_spread(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--out", str(out), "--seed", "0"])
    last = _rows(out / "series.csv")[-1].split(",")
    bid, ask = int(last[1]), int(last[2])
    assert f"final spread {ask - bid}," in capsys.readouterr().out


def test_simulate_prints_the_event_counts(tmp_path, capsys):
    main(["simulate", "--out", str(tmp_path), "--seed", "0", "--steps", "300",
          "--collision-probability", "0.5"])
    found = re.search(r"^simulate: events (\d+) passive, (\d+) partial, "
                      r"(\d+) full, (\d+) residual$", capsys.readouterr().out,
                      re.MULTILINE)
    passive, partial, full, residual = map(int, found.groups())
    # every tick is exactly one of passive, partial and full; a residual
    # rides on a full fill
    assert passive + partial + full == 300
    assert passive > 0 and partial > 0 and 0 < residual <= full


@pytest.mark.parametrize("steps", (1, 450, 3000))
@pytest.mark.parametrize("spread", (1, 20))
@pytest.mark.parametrize("p", (0.0, 0.15, 0.5, 0.99, 1.0))
def test_event_counts_are_the_journal_tags(tmp_path, capsys, monkeypatch,
                                           p, spread, steps):
    # simulate counts the events from the columns and the journal's
    # length; the journal's own tags must give the same four counts
    bundles = []

    def recorded(config):
        bundles.append(run(config))
        return bundles[-1]

    monkeypatch.setattr(cli, "run", recorded)
    assert main(["simulate", "--out", str(tmp_path), "--steps", str(steps),
                 "--collision-probability", str(p), "--spread", str(spread)]) == 0
    tags = Counter(entry[0] for entry in bundles[0].final_book.journal)
    assert (f"simulate: events {tags['passive']} passive, {tags['trade']} partial, "
            f"{tags['consume']} full, {tags['residual']} residual\n"
            in capsys.readouterr().out)


def test_price_floor_is_a_typed_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--bid", "10", "--steps", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tick 0: price floor: ")
    assert not out.exists()


def test_simulate_svg_flag(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--out", str(out), "--steps", "10", "--svg"])
    markup = (out / "series.svg").read_text()
    assert markup.startswith("<svg")


@pytest.mark.parametrize("flags", [["--window", "200"],
                                   ["--collision-probability", "1.0", "--window", "1",
                                    "--seed", "1", "--bid", "20000"]],
                         ids=["window-200", "P1-window-1"])
def test_simulate_svg_reruns_to_the_same_bytes(tmp_path, flags):
    # criterion 9 with both writers: 2 * _BLOCK + 1 ticks cross series.csv's
    # two block seams; at P = 1 and window 1 infinities and finite values
    # meet in one file, and from bid 20000 seed 1 stays above the price
    # floor that long
    steps = str(2 * _BLOCK + 1)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", "--steps", steps, *flags, "--svg",
                     "--out", str(out)]) == 0
    for name in ("series.csv", "series.svg"):
        assert_same((outs[0] / name).read_bytes(), (outs[1] / name).read_bytes(), name)


def test_negative_zero_probability_writes_the_bytes_of_zero(tmp_path):
    # -0.0 == 0.0, so the run is the same; its header echo and its
    # p / (1 - p) Reynolds factor must not print a minus sign either
    outs = {p: tmp_path / p for p in ("-0.0", "0")}
    for p, out in outs.items():
        assert main(["simulate", "--steps", "60", "--collision-probability", p,
                     "--svg", "--out", str(out)]) == 0
    for name in ("series.csv", "series.svg"):
        assert_same((outs["-0.0"] / name).read_bytes(),
                    (outs["0"] / name).read_bytes(), name)


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 450\nseed = 1\n")
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--steps", "10",
          "--out", str(out)])
    assert len(_rows(out / "series.csv")) == 10
    assert parse_series_header(str(out / "series.csv")).seed == 1


def test_config_file_alone_sets_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 7\ncollision_probability = 0.25\n")
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    parsed = parse_series_header(str(out / "series.csv"))
    assert parsed.steps == 7
    assert parsed.collision_probability == 0.25
    # untouched keys keep their defaults
    assert parsed.initial_bid == SimConfig().initial_bid


def test_bad_config_returns_error_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stepz = 7\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "stepz" in capsys.readouterr().err


@pytest.mark.parametrize("m,h", [
    (2000.0, 0.1),         # the kernel underflows inside the book
    (2000.0, 1e-200),      # h**3 underflows to zero
    (1e-320, 10.0),        # sizes underflow to zero
    (float("inf"), 10.0),  # infinite sizes
    (1.7e308, 0.5),        # the nearest sizes overflow
    (6.2e307, 0.5),        # sizes are finite, 450 ticks of notionals are not
])
def test_doomed_kernel_config_is_rejected(tmp_path, capsys, m, h):
    with pytest.raises(ValueError):
        SimConfig(m=m, h=h)
    code = main(["simulate", "--mass", str(m), "--smoothing-length", str(h),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bid_beyond_exact_half_ticks_is_rejected(tmp_path, capsys):
    # at 1e17 a half tick is below float resolution: the mid would stand
    # still while the quotes move
    with pytest.raises(ValueError, match="2\\*\\*53"):
        SimConfig(initial_bid=10**17, steps=200)
    code = main(["simulate", "--bid", "100000000000000000",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # the largest accepted bid still gives exact mids
    bid = (2**53 - 1 - 1 - 450) // 2
    SimConfig(initial_bid=bid)
    with pytest.raises(ValueError):
        SimConfig(initial_bid=bid + 1)


def test_batch_writes_summary_rows(tmp_path):
    out = tmp_path / "run"
    code = main(["batch", "--out", str(out), "--steps", "15",
                 "--n-seeds", "2"])
    assert code == 0
    rows = _rows(out / "batch.csv")
    # 2 probabilities x 2 spreads x 2 seeds
    assert len(rows) == 8
    assert all(row.split(",")[-1] == "" for row in rows)


@pytest.mark.parametrize("flags", [
    ["--svg"],
    ["--spread", "5"],                     # the grid sets the spread
    ["--collision-probability", "0.5"],    # and the probability
])
def test_batch_rejects_flags_it_does_not_read(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--out", str(tmp_path), *flags])
    assert exc.value.code == 2


def test_batch_rejects_an_invalid_cell_before_any_run(tmp_path, capsys,
                                                      monkeypatch):
    def no_run(config):
        raise AssertionError("a run started")
    monkeypatch.setattr(sweep, "run", no_run)
    # valid at spread 1, past the 2**53 bound at spread 20
    code = main(["batch", "--bid", "4503599627370270", "--n-seeds", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "2**53" in capsys.readouterr().err
    assert not (tmp_path / "batch.csv").exists()


@pytest.mark.parametrize("n_seeds", ["0", "-3"])
def test_batch_rejects_an_empty_seed_block(tmp_path, capsys, n_seeds):
    code = main(["batch", "--n-seeds", n_seeds, "--out", str(tmp_path)])
    assert code == 2
    assert "error: --n-seeds must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "batch.csv").exists()


def test_surface_writes_both_grids(tmp_path):
    out = tmp_path / "run"
    code = main(["surface", "--out", str(out), "--svg"])
    assert code == 0
    assert len(_rows(out / "surface_speed.csv")) == 41 * 100
    assert len(_rows(out / "surface_spread.csv")) == 20 * 100
    assert (out / "surface_speed.svg").exists()
    assert (out / "surface_spread.svg").exists()


def test_missing_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
