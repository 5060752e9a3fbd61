"""Command line entry points.

Subcommands:
  simulate  run one simulation and write series.csv (optionally series.svg)
  batch     sweep collision probability and spread over a block of seeds
  surface   tabulate closed-form Reynolds surfaces

Settings resolve in three layers: built-in defaults, then a config file
given with --config, then explicit flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import CONFIG_FIELDS, SimConfig, parse_config
from .engine import run
from .io import write_batch_csv, write_grid_csv, write_series_csv
from .sweep import (batch_runs, default_l_grid, default_probability_grid,
                    default_speed_grid, surface_speed, surface_spread)

# (flag, SimConfig field, help); a flag's dest and type are its field's
_CONFIG_FLAGS = (
    ("--seed", "seed", "RNG seed"),
    ("--steps", "steps", "number of ticks"),
    ("--collision-probability", "collision_probability",
     "chance a new agent prices at the opposite best"),
    ("--spread", "initial_spread", "initial ask minus bid, in ticks"),
    ("--bid", "initial_bid", "initial best bid price"),
    ("--mass", "m", "kernel mass scale for sizes"),
    ("--smoothing-length", "h", "kernel smoothing length"),
    ("--window", "smoothing_window", "trailing moving-average window"),
)

# batch's cells: collision probability x initial spread, each over the
# same block of seeds. batch takes no flag for a field set here.
_BATCH_GRID = tuple(
    {"collision_probability": p, "initial_spread": l}
    for p in (0.99, 0.15)
    for l in (1, 20)
)


def _add_config_flags(parser: argparse.ArgumentParser,
                      fixed: frozenset = frozenset()) -> None:
    """--config, a flag per field not in `fixed`, and --out."""
    parser.add_argument("--config", metavar="FILE",
                        help="config file with key = value lines")
    for flag, field, help_text in _CONFIG_FLAGS:
        if field not in fixed:
            parser.add_argument(flag, dest=field, type=CONFIG_FIELDS[field],
                                metavar=flag[2:].upper().replace("-", "_"),
                                help=help_text)
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")


def _resolve_config(args: argparse.Namespace) -> SimConfig:
    return parse_config(args.config, {
        field: getattr(args, field) for field in CONFIG_FIELDS
        if getattr(args, field, None) is not None})


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    bundle = run(config)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "series.csv")
    write_series_csv(bundle, csv_path)
    written = [csv_path]
    if args.svg:
        from .svg import series_figure, write_svg
        svg_path = os.path.join(args.out, "series.svg")
        write_svg(series_figure(bundle), svg_path)
        written.append(svg_path)
    book = bundle.final_book
    print(f"simulate: {config.steps} ticks, final spread {book.ask - book.bid}, "
          f"final smoothed viscosity {bundle.smoothed_mu[-1]:.6f}, "
          f"final smoothed Reynolds {bundle.smoothed_reynolds[-1]:.6f}")
    # The events, counted after the run with no pass over the journal:
    # a tick rested exactly when its volume is 0 (every agent size is at
    # least m * W(9; h) > 0), each full fill widens the spread by one
    # tick and nothing narrows it, and the journal holds 20 `init`
    # entries, one entry per tick, a `regen` per full fill and the
    # residuals.
    passive = int((bundle.columns["volume"] == 0.0).sum())
    full = book.ask - book.bid - config.initial_spread
    residual = len(book.journal) - 20 - config.steps - full
    print(f"simulate: events {passive} passive, {config.steps - passive - full} partial, "
          f"{full} full, {residual} residual")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.n_seeds < 1:
        raise ValueError("--n-seeds must be >= 1")
    base = _resolve_config(args)
    seeds = list(range(base.seed, base.seed + args.n_seeds))
    summaries = batch_runs(base, _BATCH_GRID, seeds)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "batch.csv")
    write_batch_csv(summaries, csv_path)
    failed = sum(1 for s in summaries if s.error is not None)
    print(f"batch: {len(summaries)} runs, {failed} failed")
    print(f"wrote {csv_path}")
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    p_grid = default_probability_grid()
    grids = (("surface_speed", surface_speed(default_speed_grid(), p_grid, l=1.0)),
             ("surface_spread", surface_spread(default_l_grid(), p_grid, v_t=1.0)))
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, grid in grids:
        written.append(os.path.join(args.out, f"{name}.csv"))
        write_grid_csv(grid, written[-1])
    if args.svg:
        from .svg import surface_figure, write_svg
        for name, grid in grids:
            written.append(os.path.join(args.out, f"{name}.svg"))
            write_svg(surface_figure(grid), written[-1])
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketflow",
        description="order book simulator with fluid-flow diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    _add_config_flags(p_sim)
    p_sim.add_argument("--svg", action="store_true",
                       help="also write SVG figures")
    p_sim.set_defaults(func=_cmd_simulate)

    p_batch = sub.add_parser("batch",
                             help="run a probability/spread sweep")
    _add_config_flags(p_batch, fixed=frozenset().union(*_BATCH_GRID))
    p_batch.add_argument("--n-seeds", type=int, default=20,
                         dest="n_seeds",
                         help="seeds per grid cell (default 20)")
    p_batch.set_defaults(func=_cmd_batch)

    p_surf = sub.add_parser("surface",
                            help="tabulate closed-form Reynolds surfaces")
    p_surf.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    p_surf.add_argument("--svg", action="store_true",
                        help="also write SVG heatmaps")
    p_surf.set_defaults(func=_cmd_surface)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
