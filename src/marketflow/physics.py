"""Pure fluid-analogy formulas: kernel, viscosity, Reynolds.

All functions are stateless. Singular inputs produce extended-real
outputs (math.inf) instead of exceptions, because both infinite limits
carry meaning: infinite viscosity marks a tick with no effective trade,
an infinite Reynolds number marks a saturated collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .book import InteractionOutcome


class DegenerateBookError(ValueError):
    """Raised when a run reaches the price floor: a full fill on the buy
    side would put a level below price 1. `OrderBook.check` also raises
    it for a book that breaks an invariant (a level count other than
    ten, a non-positive size, a crossed book)."""


class FlowRegime(Enum):
    LAMINAR = "laminar"
    TRANSITIONAL = "transitional"
    TURBULENT = "turbulent"


# Module-level members: attribute access on an Enum class is Python-level.
_LAMINAR, _TRANSITIONAL, _TURBULENT = FlowRegime


LAMINAR_BELOW = 2300.0
TURBULENT_ABOVE = 2900.0


def kernel_weight(r: float, h: float) -> float:
    """Gaussian smoothing weight exp(-r^2/h^2) / (h^3 * pi^(3/2)).

    Even in r, maximal at r = 0. The cubic normalization is kept as is
    even though prices live on one axis; only ratios of weights matter
    downstream.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    return math.exp(-(r * r) / (h * h)) / (h * h * h * math.pi ** 1.5)


def size_at(price: float, bid: float, ask: float, m: float, h: float) -> float:
    """Size coordinate at a price: kernel mass from both quote anchors.

    Runs size levels and agents through `book.SizeMemo`, which memoises
    the weights; this is the unmemoised reference it is checked against.
    """
    return m * (kernel_weight(price - bid, h) + kernel_weight(price - ask, h))


def viscosity(outcome: "InteractionOutcome") -> float:
    """Viscosity analog: notional imbalance over (volume * price change).

    Infinite whenever V * v_T = 0 (no trade, or a trade that left the
    mid in place). Zero exactly at a perfect collision, where the two
    notionals match. Reported as a magnitude so the value lives on the
    extended nonnegative axis regardless of trade direction.
    """
    denom = outcome.traded_volume * outcome.price_change
    if denom == 0.0:
        return math.inf
    return abs((outcome.obstacle_notional - outcome.order_notional) / denom)


def collision_ratio(outcome: "InteractionOutcome") -> float:
    """Realized collision ratio: order notional over obstacle notional.

    Clamped to [0, 1]; 0 on passive ticks. The clamp keeps the odds
    transform defined when a residual-fattened order overshoots the
    resting level. The obstacle notional is positive: the book's price
    floor keeps every level at a price >= 1.
    """
    if not outcome.collision:
        return 0.0
    return min(outcome.order_notional / outcome.obstacle_notional, 1.0)


def reynolds_tick(outcome: "InteractionOutcome") -> float:
    """Per-tick Reynolds number from realized notionals.

    r * v_T^2 * l / (1 - r) with r the realized collision ratio.
    Returns 0 when v_T = 0 or r = 0, and +inf when r = 1 with v_T != 0.
    Runs record the closed form instead; this is the per-notional
    reference the closed form is checked against.
    """
    r = collision_ratio(outcome)
    v_t = outcome.price_change
    if v_t == 0.0 or r == 0.0:
        return 0.0
    if r == 1.0:
        return math.inf
    return (r * (v_t * v_t) * outcome.spread_before) / (1.0 - r)


def reynolds_closed_form(v_t: float, l: float, p: float) -> float:
    """Reynolds number from the collision odds: v_T^2 * l * p/(1-p).

    Requires 0 <= p < 1; callers own the p = 1 limit explicitly.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    # multiply by l last: scaling in l is then exact in floating point
    return (v_t * v_t) * (p / (1.0 - p)) * l


def classify_flow(n_r: float) -> FlowRegime:
    """Laminar below 2300, turbulent above 2900, transitional between
    (both boundary values included)."""
    if n_r < LAMINAR_BELOW:
        return _LAMINAR
    if n_r > TURBULENT_ABOVE:
        return _TURBULENT
    return _TRANSITIONAL


@dataclass(slots=True)
class TickRecord:
    """Physics readout of one simulation step: one `series.csv` row
    before smoothing.

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
