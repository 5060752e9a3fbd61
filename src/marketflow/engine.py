"""The simulation loop and the post-run series treatment."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import __version__
from .agents import GENERATOR_NAME, AgentSampler
from .book import OrderBook, apply_order, init_book, reconcile
from .config import SimConfig
from .physics import (
    DegenerateBookError,
    TickRecord,
    classify_flow,
    collision_ratio,
    fluid_density,
    obstacle_density,
    reynolds_closed_form,
    reynolds_tick,
    viscosity,
)


@dataclass
class SeriesBundle:
    """A completed run: per-tick records, the smoothed series, and
    enough metadata to reproduce the run exactly."""

    ticks: list[TickRecord]
    smoothed_mu: list[float]
    smoothed_reynolds: list[float]
    metadata: dict
    config: SimConfig
    final_book: OrderBook


def step(book: OrderBook, sampler: AgentSampler, config: SimConfig, t: int) -> TickRecord:
    """Sample one agent, apply it, and read out the tick physics. A
    `DegenerateBookError` is re-raised with a `tick N: ` prefix."""
    try:
        agent = sampler.sample(book)
        outcome = apply_order(book, agent)
        book.check()

        v_t = outcome.price_change
        mid_after = book.mid
        mid_before = mid_after - v_t
        p = config.collision_probability
        if p >= 1.0:
            # closed form rejects the saturated limit; take it explicitly
            nr = 0.0 if v_t == 0.0 else math.inf
        else:
            nr = reynolds_closed_form(v_t, float(outcome.spread_before), p)

        volume = outcome.traded_volume
        # outcomes carry notionals (size * price already folded), so the
        # density calls pass a unit price
        return TickRecord(
            t=t,
            bid=book.bid,
            ask=book.ask,
            mid=mid_after,
            ret=v_t / mid_before,
            v_t=v_t,
            spread=outcome.spread_before,
            volume=volume,
            rho_obstacle=obstacle_density(outcome.obstacle_notional, 1.0, volume),
            rho_fluid=fluid_density(outcome.order_notional, 1.0, volume),
            mu=viscosity(outcome),
            p_hat=collision_ratio(outcome),
            reynolds=nr,
            reynolds_realized=reynolds_tick(outcome),
            regime=classify_flow(nr),
        )
    except DegenerateBookError as exc:
        raise DegenerateBookError(f"tick {t}: {exc}") from exc


def run(config: SimConfig) -> SeriesBundle:
    """Initialize, iterate `steps` ticks, smooth, and bundle the result."""
    book = init_book(config)  # validates the config
    sampler = AgentSampler(config.collision_probability, config.m, config.h, config.seed)
    ticks = [step(book, sampler, config, t) for t in range(config.steps)]

    report = reconcile(book)
    if not report.exact:
        raise RuntimeError("volume ledger failed to reconcile against the journal")

    metadata = {
        "seed": config.seed,
        "generator": GENERATOR_NAME,
        "version": __version__,
    }
    return SeriesBundle(
        ticks=ticks,
        smoothed_mu=smooth_viscosity([r.mu for r in ticks], config.viscosity_clamp,
                                     config.smoothing_window),
        smoothed_reynolds=smooth_series([r.reynolds for r in ticks],
                                        config.smoothing_window),
        metadata=metadata,
        config=config,
        final_book=book,
    )


def _trailing_mean(values: list[float], window: int) -> list[float]:
    if window < 1:
        raise ValueError("window must be >= 1")
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        chunk = values[lo:i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


def smooth_viscosity(raw: list[float], clamp: float, window: int) -> list[float]:
    """Three stages: clamp infinities, normalize by the largest finite
    value of the whole series, then trailing moving average.

    Clamped entries stay at the clamp through normalization so one
    infinity cannot flatten the finite structure. A series with no
    finite entry becomes all-clamp; an all-zero finite series stays
    zero, since there is no maximum to divide by.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    clamped = [clamp if math.isinf(v) else v for v in raw]
    finite = [v for v, orig in zip(clamped, raw) if not math.isinf(orig)]
    peak = max(finite) if finite else 0.0
    if peak > 0.0:
        clamped = [v if math.isinf(orig) else v / peak
                   for v, orig in zip(clamped, raw)]
    return _trailing_mean(clamped, window)


def smooth_series(raw: list[float], window: int) -> list[float]:
    """Trailing moving average, truncated at the series head."""
    return _trailing_mean(raw, window)
