"""CSV files and the series header.

Every output file starts with a commented metadata block that echoes
the full configuration (as `config`'s echo, which `parse_series_header`
reads back with `config`'s parser), the seed, and the generator
identity, so the file alone suffices to reproduce itself. Files are
written to a temporary sibling and renamed into place; a write that
raises removes the sibling and leaves the old file as it was.

`series.csv` is formatted and joined a block of whole columns at a
time by `numfmt`, whose text is that of `%` applied to each value on
its own, with every infinity spelled `inf`.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .agents import GENERATOR_NAME
from .config import SimConfig, config_echo_lines, parse_config_lines
from .engine import SeriesBundle
from .numfmt import formatted, joined, words
from .physics import REGIMES
from .sweep import RunSummary, SurfaceGrid

# series.csv's columns before the regime: (header, the `bundle.columns`
# key or the `SeriesBundle` field of a smoothed series that it writes)
_SERIES = (("t", "t"), ("bid", "bid"), ("ask", "ask"), ("mid", "mid"),
           ("return", "ret"), ("v_T", "v_t"), ("l", "spread"), ("V", "volume"),
           ("p_hat", "p_hat"), ("mu_raw", "mu"), ("mu_smoothed", "smoothed_mu"),
           ("reynolds_raw", "reynolds"), ("reynolds_smoothed", "smoothed_reynolds"))
SERIES_COLUMNS = ",".join([header for header, _ in _SERIES] + ["regime"])


def metadata_header(config: SimConfig) -> list[str]:
    lines = ["# config-begin"]
    lines += [f"# {line}" for line in config_echo_lines(config)]
    lines += ["# config-end",
              f"# generator = {GENERATOR_NAME}",
              f"# version = {__version__}"]
    return lines


def parse_series_header(path: str) -> SimConfig:
    """Recover the exact SimConfig from a series file's metadata block."""
    block: list[str] = []
    inside = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped == "# config-begin":
                inside = True
            elif stripped == "# config-end":
                break
            elif inside and stripped.startswith("#"):
                block.append(stripped[1:].strip())
    if not block:
        raise ValueError(f"{path} has no config block")
    return SimConfig(**parse_config_lines(block, source=path))


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.6f}"


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write each bytes object of `chunks` to `path + ".tmp"`, then
    rename it onto `path`. If writing, or making a chunk, raises, the
    temporary file is removed and `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


# Rows formatted and written per pass. Each `formatted` call has a fixed
# cost, paid once per column and block, of about 25 us for a float column
# (35 us with an infinity or a NaN in it) and 8 us for an integer column
# in [0, 2**52) (numpy 2.4, Python 3.11, a 2-core Xeon VM), while a
# block's peak is held once whatever the run's length: at 4096 rows a
# 20k-tick run makes 65 calls, at a tracemalloc peak of about 1.35 MiB.
_BLOCK = 4096


def _series_text(bundle: SeriesBundle):
    """series.csv's header, then its rows, one block at a time, as bytes."""
    yield "\n".join(metadata_header(bundle.config) + [SERIES_COLUMNS, ""]).encode()
    columns = bundle.columns
    series = [np.asarray(columns[source] if source in columns else getattr(bundle, source))
              for _, source in _SERIES]
    # integer columns as whole numbers: %.0f spells an int below 2**53 exactly
    formats = ["%.0f," if values.dtype.kind == "i" else "%.6f," for values in series]
    names = words([(regime.value + "\n").encode() for regime in REGIMES])
    regimes = columns["regime"]
    for lo in range(0, len(regimes), _BLOCK):
        cut = slice(lo, lo + _BLOCK)
        cells = [column for values, fmt in zip(series, formats)
                 for column in formatted(values[cut], fmt)]
        cells.extend(names[regimes[cut]].T)
        yield joined(cells)


def write_series_csv(bundle: SeriesBundle, path: str) -> None:
    """One row per tick, streamed to the file in blocks of `_BLOCK` (4096)
    rows: each block is formatted and written before the next is made.
    The block size weighs the fixed cost of a `formatted` call, paid once
    per column and block, against the block's peak memory, paid once per
    run. The columns are those of `_SERIES`, then the regime. Integer
    columns (`t`, `bid`, `ask`, `l`) are written as whole numbers, the
    others with six decimals, and every infinity, of either sign, as the
    token `inf`."""
    _atomic_write_chunks(path, _series_text(bundle))


def write_grid_csv(grid: SurfaceGrid, path: str) -> None:
    """Long-format surface rows: x, collision probability, Reynolds."""
    lines = [f"# surface over ({grid.x_name}, p)"]
    for key, val in sorted(grid.fixed_params.items()):
        lines.append(f"# {key} = {val!r}")
    lines.append(f"# version = {__version__}")
    lines.append(f"{grid.x_name},p,reynolds")
    for i, p in enumerate(grid.y_axis):
        for j, x in enumerate(grid.x_axis):
            lines.append(f"{_fmt(x)},{_fmt(p)},{_fmt(grid.values[i][j])}")
    _atomic_write_chunks(path, [("\n".join(lines) + "\n").encode()])


def write_batch_csv(summaries: list[RunSummary], path: str) -> None:
    """One row per run with the varied parameters and final statistics."""
    lines = [f"# batch of {len(summaries)} runs",
             f"# generator = {GENERATOR_NAME}",
             f"# version = {__version__}",
             ",".join(("collision_probability,initial_spread,initial_bid,steps,seed,"
                       "final_mu,final_reynolds,max_reynolds",
                       *[f"n_{regime.value}" for regime in REGIMES], "error"))]
    for s in summaries:
        cfg = s.config
        if s.error:  # a stopped run writes its error and no numbers
            tail = [""] * (3 + len(REGIMES)) + [s.error]
        else:
            tail = [*map(_fmt, (s.final_mu, s.final_reynolds, s.max_reynolds)),
                    *[str(s.regime_counts.get(regime.value, 0)) for regime in REGIMES],
                    ""]
        lines.append(",".join((
            repr(cfg.collision_probability), str(cfg.initial_spread),
            str(cfg.initial_bid), str(cfg.steps), str(s.seed), *tail)))
    _atomic_write_chunks(path, [("\n".join(lines) + "\n").encode()])
