"""Pure fluid-analogy formulas: kernel, viscosity, Reynolds.

All functions are stateless. The kernel is scalar; the per-tick
readout formulas work elementwise on numpy arrays, one column per
quantity, and a run applies each once to all its ticks. Singular inputs
produce extended-real outputs (inf) instead of exceptions, through
explicit masks, because both infinite limits carry meaning: infinite
viscosity marks a tick with no effective trade, an infinite Reynolds
number marks a saturated collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DegenerateBookError(ValueError):
    """Raised when a run reaches the price floor: a full fill on the buy
    side would put a level below price 1. `OrderBook.check` also raises
    it for a book that breaks an invariant (a level count other than
    ten, a non-positive size, a crossed book)."""


class FlowRegime(Enum):
    LAMINAR = "laminar"
    TRANSITIONAL = "transitional"
    TURBULENT = "turbulent"


# The members in index order: `classify_flow` gives indices into this.
REGIMES = tuple(FlowRegime)


LAMINAR_BELOW = 2300.0
TURBULENT_ABOVE = 2900.0


_PI_THREE_HALVES = math.pi ** 1.5


def kernel_weight(r: float, h: float) -> float:
    """Gaussian smoothing weight exp(-r^2/h^2) / (h^3 * pi^(3/2)).

    Even in r, maximal at r = 0. The cubic normalization is kept as is
    even though prices live on one axis; only ratios of weights matter
    downstream.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    return math.exp(-(r * r) / (h * h)) / (h * h * h * _PI_THREE_HALVES)


def viscosity(volume, v_t, obstacle_notional, order_notional) -> np.ndarray:
    """Viscosity analog: notional imbalance over (volume * price change),
    elementwise over the ticks.

    Infinite wherever V * v_T = 0 (no trade, or a trade that left the
    mid in place); the mask is explicit, since numpy would give nan for
    0/0. Zero exactly at a perfect collision, where the two notionals
    match. Reported as a magnitude so the value lives on the extended
    nonnegative axis regardless of trade direction.
    """
    denom = np.multiply(volume, v_t)
    mu = np.full(denom.shape, math.inf)
    np.divide(np.subtract(obstacle_notional, order_notional), denom,
              out=mu, where=denom != 0.0)
    return np.abs(mu, out=mu)


def collision_ratio(order_notional, obstacle_notional, collision) -> np.ndarray:
    """Realized collision ratio: order notional over obstacle notional,
    elementwise over the ticks.

    0 where `collision` is false (passive ticks), else clamped at 1. The
    clamp keeps the odds transform defined when a residual-fattened order
    overshoots the resting level. The obstacle notional is positive: the
    book's price floor keeps every level at a price >= 1.
    """
    ratio = np.zeros(np.shape(order_notional))
    np.divide(order_notional, obstacle_notional, out=ratio, where=collision)
    return np.minimum(ratio, 1.0, out=ratio)


def reynolds_closed_form(v_t, l, p: float):
    """Reynolds number from the collision odds: v_T^2 * l * p/(1-p),
    elementwise in v_T and l.

    Requires 0 <= p < 1; callers own the p = 1 limit explicitly.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    # multiply by l last: scaling in l is then exact in floating point
    return (v_t * v_t) * (p / (1.0 - p)) * l


def classify_flow(n_r) -> np.ndarray:
    """Regime indices into `REGIMES`: laminar (0) below 2300, turbulent
    (2) above 2900, transitional (1) between, both boundary values
    included."""
    n_r = np.asarray(n_r)
    return 1 - (n_r < LAMINAR_BELOW) + (n_r > TURBULENT_ABOVE)


@dataclass(slots=True)
class TickRecord:
    """Physics readout of one simulation step: one `series.csv` row
    before smoothing. A run stores these fields as columns;
    `SeriesBundle.ticks` builds the records from them.

    `reynolds` is the closed-form value at the configured collision
    probability with the realized (v_T, l); it is the series that gets
    smoothed and classified. `p_hat` is the realized collision ratio.
    """

    t: int
    bid: int
    ask: int
    mid: float
    ret: float
    v_t: float
    spread: int
    volume: float
    mu: float
    p_hat: float
    reynolds: float
    regime: FlowRegime
