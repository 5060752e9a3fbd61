"""The simulation loop and the post-run series treatment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .agents import GENERATOR_NAME, AgentSampler
from .book import OrderBook, apply_order, init_book, reconcile
from .config import SimConfig
from .physics import (
    DegenerateBookError,
    TickRecord,
    classify_flow,
    collision_ratio,
    reynolds_closed_form,
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

        bid, ask = book.bid, book.ask
        v_t = outcome.price_change
        mid_after = (bid + ask) / 2.0
        mid_before = mid_after - v_t
        spread = outcome.spread_before
        p = config.collision_probability
        if p >= 1.0:
            # closed form rejects the saturated limit; take it explicitly
            nr = 0.0 if v_t == 0.0 else math.inf
        else:
            nr = reynolds_closed_form(v_t, float(spread), p)

        # Positional, in field order: keyword calls into a dataclass
        # __init__ cost several times more.
        return TickRecord(
            t, bid, ask, mid_after,
            v_t / mid_before,                                     # ret
            v_t, spread, outcome.traded_volume,
            viscosity(outcome),                                   # mu
            collision_ratio(outcome),                             # p_hat
            nr,                                                   # reynolds
            classify_flow(nr),                                    # regime
        )
    except DegenerateBookError as exc:
        raise DegenerateBookError(f"tick {t}: {exc}") from exc


def run(config: SimConfig) -> SeriesBundle:
    """Initialize, iterate `steps` ticks, smooth, and bundle the result."""
    book = init_book(config)  # validates the config
    sampler = AgentSampler(config.collision_probability, config.seed)
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
    """Mean of each entry's trailing window, truncated at the head.

    Each window is summed from 0.0, oldest entry first, then divided by
    its length: `acc = 0.0; for x in chunk: acc += x` done for all rows
    at once, one vector add per offset. That is the order 3.11's `sum()`
    adds in, bit for bit; 3.12's compensated `sum()` would differ in the
    low bits.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.array(values, dtype=float)
    n = len(x)
    window = min(window, n)  # also keeps a huge window inside int64
    acc = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf
        for k in range(window - 1, -1, -1):
            acc[k:] += x[:n - k]
    return (acc / np.minimum(np.arange(1, n + 1), window)).tolist()


def smooth_viscosity(raw: list[float], clamp: float, window: int) -> list[float]:
    """Three stages: clamp infinities, normalize by the largest finite
    value of the whole series, then trailing moving average.

    Clamped entries stay at the clamp through normalization so one
    infinity cannot flatten the finite structure. A series with no
    finite entry becomes all-clamp; an all-zero finite series stays
    zero, since there is no maximum to divide by.
    """
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
