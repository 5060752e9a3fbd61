"""The simulation loop and the post-run series treatment."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from .agents import AgentSampler
from .book import OrderBook, apply_order, reconcile
from .config import SimConfig
from .physics import (
    REGIMES,
    DegenerateBookError,
    TickRecord,
    classify_flow,
    collision_ratio,
    reynolds_closed_form,
    viscosity,
)


_TICK_FIELDS = [f.name for f in fields(TickRecord)]


@dataclass
class SeriesBundle:
    """A completed run: one numpy column per `TickRecord` field, the
    smoothed series as float64 arrays, the config, which reproduces the
    run exactly, and the final book.

    `columns` maps each field name to an array over the ticks, in field
    order; `regime` holds indices into `physics.REGIMES`. `ticks` builds
    the per-tick records from the columns each time it is read.
    """

    columns: dict[str, np.ndarray]
    smoothed_mu: np.ndarray
    smoothed_reynolds: np.ndarray
    config: SimConfig
    final_book: OrderBook

    @property
    def ticks(self) -> list[TickRecord]:
        rows = [self.columns[name].tolist() for name in _TICK_FIELDS]
        rows[-1] = [REGIMES[i] for i in rows[-1]]  # regime
        return list(map(TickRecord, *rows))


def step(book: OrderBook, sampler: AgentSampler, t: int) -> tuple:
    """Sample one agent, pass its tuple to `apply_order` as it is, and
    return the outcome: the one per-tick call of a run. A
    `DegenerateBookError` is re-raised with a `tick N: ` prefix."""
    try:
        return apply_order(book, sampler.sample(book))
    except DegenerateBookError as exc:
        raise DegenerateBookError(f"tick {t}: {exc}") from exc


def _readout(tables: list, bid0: int, ask0: int,
             p: float) -> dict[str, np.ndarray]:
    """The run's `TickRecord` columns from its outcome table (one row per
    tick of volume, obstacle notional, order notional, bid and ask), the
    starting quotes and the configured collision probability, one array
    pass per quantity. The table comes as the one entry of `tables`,
    which is emptied, so that the caller holds no reference to it. Every
    returned array owns its memory, and the table's views are dropped as
    soon as the columns that read them exist, so the table is freed
    before the rest of the readout.

    The one definition of v_T, l and a collision: v_T is the change of
    the mid (bid + ask) / 2.0 from the previous tick, l is the previous
    tick's spread, and a tick collided exactly when its volume is
    positive.
    """
    volume, obstacle, order, bid, ask = tables.pop().T
    # Under SimConfig's 2**53 bound every quote is an exact float64, so
    # the integer quotes are exact, every mid is an exact half tick, and
    # the mid differences, and mid - v_T, are exact.
    bid, ask = bid.astype(np.int64), ask.astype(np.int64)
    mid = (bid + ask) / 2.0
    v_t = mid - np.concatenate(([(bid0 + ask0) / 2.0], mid[:-1]))
    mu = viscosity(volume, v_t, obstacle, order)
    p_hat = collision_ratio(order, obstacle, volume > 0.0)
    volume = volume.copy()
    del obstacle, order  # the last views of the table
    spread = np.concatenate(([ask0 - bid0], (ask - bid)[:-1]))
    if p >= 1.0:
        # the closed form rejects the saturated limit; take it explicitly
        reynolds = np.where(v_t == 0.0, 0.0, math.inf)
    else:
        reynolds = reynolds_closed_form(v_t, spread, p)
    return {
        "t": np.arange(len(bid)),
        "bid": bid,
        "ask": ask,
        "mid": mid,
        "ret": v_t / (mid - v_t),
        "v_t": v_t,
        "spread": spread,
        "volume": volume,
        "mu": mu,
        "p_hat": p_hat,
        "reynolds": reynolds,
        "regime": classify_flow(reynolds),
    }


def run(config: SimConfig) -> SeriesBundle:
    """Initialize, iterate `steps` ticks, reconcile, read out the physics
    of every tick at once, smooth, and bundle the result.

    The loop calls `step` once per tick and writes each outcome tuple
    into one float64 table of five columns, 40 B a tick, so no tuple
    outlives its tick.
    """
    book = OrderBook(config)
    bid0, ask0 = book.bid, book.ask
    sampler = AgentSampler(config)
    # a list that `_readout` empties, so the readout frees the table
    # part way through
    tables = [np.fromiter(
        chain.from_iterable(map(step, repeat(book), repeat(sampler), range(config.steps))),
        float, 5 * config.steps).reshape(-1, 5)]

    if not reconcile(book):
        raise RuntimeError("volume ledger failed to reconcile against the journal")

    columns = _readout(tables, bid0, ask0, config.collision_probability)
    return SeriesBundle(
        columns=columns,
        smoothed_mu=smooth_viscosity(columns["mu"], config.viscosity_clamp,
                                     config.smoothing_window),
        smoothed_reynolds=smooth_series(columns["reynolds"], config.smoothing_window),
        config=config,
        final_book=book,
    )


def _trailing_mean(values, window: int) -> np.ndarray:
    """Mean of each entry's trailing window, truncated at the head.

    Each window is summed from 0.0, oldest entry first, then divided by
    its length: `acc = 0.0; for x in chunk: acc += x` done for all rows
    at once, one vector add per offset. That is the order 3.11's `sum()`
    adds in, bit for bit; 3.12's compensated `sum()` would differ in the
    low bits.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(values, dtype=float)
    n = len(x)
    window = min(window, n)  # also keeps a huge window inside int64
    acc = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf
        for k in range(window - 1, -1, -1):
            acc[k:] += x[:n - k]
    return acc / np.minimum(np.arange(1, n + 1), window)


def smooth_viscosity(raw, clamp: float, window: int) -> np.ndarray:
    """Three stages: clamp infinities, normalize by the largest finite
    value of the whole series, then trailing moving average.

    Clamped entries stay at the clamp through normalization so one
    infinity cannot flatten the finite structure. A series with no
    finite entry becomes all-clamp; an all-zero finite series stays
    zero, since there is no maximum to divide by.
    """
    x = np.asarray(raw, dtype=float)
    infinite = np.isinf(x)
    finite = x[~infinite]
    peak = finite.max() if finite.size else 0.0
    if peak > 0.0:
        x = x / peak
    return _trailing_mean(np.where(infinite, clamp, x), window)


def smooth_series(raw, window: int) -> np.ndarray:
    """Trailing moving average, truncated at the series head."""
    return _trailing_mean(raw, window)
