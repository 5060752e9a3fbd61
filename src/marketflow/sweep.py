"""Analytical Reynolds surfaces and Monte Carlo batch sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .config import SimConfig, with_values
from .engine import run
from .physics import REGIMES, DegenerateBookError, reynolds_closed_form


def default_speed_grid() -> list[float]:
    """Market speed axis: -5 to 5 in steps of 0.25."""
    return [(i - 20) / 4 for i in range(41)]


def default_l_grid() -> list[float]:
    """Spread axis: 1 to 20 in steps of 1."""
    return [float(i) for i in range(1, 21)]


def default_probability_grid() -> list[float]:
    """Collision probability axis: 0 to 0.99 in steps of 0.01."""
    return [i / 100 for i in range(100)]


@dataclass
class SurfaceGrid:
    """A pure tabulation of the closed-form Reynolds number; each axis
    holds at least one point."""

    x_name: str
    x_axis: list[float]
    y_axis: list[float]          # collision probabilities
    values: list[list[float]]    # values[i][j] at (y_axis[i], x_axis[j])
    fixed_params: dict

    def __post_init__(self) -> None:
        for name, label in (("x_axis", self.x_name), ("y_axis", "p")):
            if not getattr(self, name):
                raise ValueError(f"the surface's {name} ({label}) is empty")


def surface_speed(vt_grid: Iterable[float], p_grid: Iterable[float],
                  l: float = 1.0) -> SurfaceGrid:
    """Reynolds numbers over (market speed, collision probability) at a
    fixed spread."""
    xs = list(vt_grid)
    ps = list(p_grid)
    values = [[reynolds_closed_form(v, l, p) for v in xs] for p in ps]
    return SurfaceGrid(x_name="v_t", x_axis=xs, y_axis=ps, values=values,
                       fixed_params={"l": l})


def surface_spread(l_grid: Iterable[float], p_grid: Iterable[float],
                   v_t: float = 1.0) -> SurfaceGrid:
    """Reynolds numbers over (spread, collision probability) at a fixed
    market speed."""
    xs = list(l_grid)
    ps = list(p_grid)
    values = [[reynolds_closed_form(v_t, l, p) for l in xs] for p in ps]
    return SurfaceGrid(x_name="l", x_axis=xs, y_axis=ps, values=values,
                       fixed_params={"v_t": v_t})


@dataclass
class RunSummary:
    """Per-run statistics used by multi-seed comparisons. A run that
    stopped at a tick has only its error; a regime it never reached has
    no count."""

    config: SimConfig
    final_mu: float | None = None
    final_reynolds: float | None = None
    max_reynolds: float | None = None
    regime_counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None

    @property
    def seed(self) -> int:
        return self.config.seed


def _summarize(config: SimConfig) -> RunSummary:
    bundle = run(config)
    columns = bundle.columns
    counts = np.bincount(columns["regime"], minlength=len(REGIMES)).tolist()
    return RunSummary(
        config=config,
        final_mu=float(bundle.smoothed_mu[-1]),
        final_reynolds=float(bundle.smoothed_reynolds[-1]),
        max_reynolds=float(columns["reynolds"].max()),
        regime_counts={regime.value: n for regime, n in zip(REGIMES, counts) if n},
    )


def batch_runs(base: SimConfig, param_grid: Iterable[Mapping],
               seeds: Iterable[int]) -> list[RunSummary]:
    """One summary per (override, seed) cell, in grid-major order.

    Every cell's config is built with `config.with_values` before the
    first run, so a cell key that is not a config field, or an invalid
    value, raises `ValueError` before tick 0. So does a cell that sets
    `seed`, which `seeds` sets. A run whose book degenerates is reported
    in its summary's error field, and the rest of the batch still runs;
    any other exception is a fault and propagates.
    """
    cells = list(param_grid)
    if not cells:
        raise ValueError("param_grid must contain at least one cell")
    if any("seed" in cell for cell in cells):
        raise ValueError("a cell cannot set seed; the seeds argument does")
    seeds = list(seeds)  # read once per cell, so a generator must not run dry
    if not seeds:
        raise ValueError("seeds must contain at least one seed")
    configs = [with_values(base, {**cell, "seed": seed})
               for cell in cells for seed in seeds]
    out: list[RunSummary] = []
    for config in configs:
        try:
            out.append(_summarize(config))
        except DegenerateBookError as exc:
            out.append(RunSummary(config, error=str(exc)))
    return out
