"""Order book state and the matching rule applied to incoming agents.

The book holds ten levels per side at contiguous integer ticks, stored
as the two quotes plus ten sizes per side. An incoming agent either
rests in the book (passive) or trades against the best opposite level
(active). Fills are capped at that single level: a full fill removes
it, moves that quote one tick outward, appends one far-end level, and
any residual agent size rests on the traded side's new best level.

Every mutation is journaled so the final state can be reconciled
bit-exactly against a replay of the journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .config import SimConfig
from .physics import DegenerateBookError, size_at


class Side(Enum):
    BUY = "buy"
    SELL = "sell"

    @property
    def other(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY


@dataclass
class PriceLevel:
    price: int
    size: float


@dataclass
class FluidAgent:
    """One incoming financial agent: side, integer price, positive size."""

    side: Side
    price: int
    size: float


@dataclass
class InteractionOutcome:
    """What one agent did to the book.

    Notionals are captured from the pre-trade state: the obstacle is the
    best opposite level, the order is the agent itself.
    """

    traded_volume: float
    price_change: float
    spread_before: int
    obstacle_notional: float
    order_notional: float
    collision: bool


class OrderBook:
    """Two quotes and ten sizes per side, indexed by depth from the best.

    Level i sits at `bid - i` on the buy side and `ask + i` on the sell
    side, so ordering, contiguity and the level count hold by
    construction. Passive orders add to sizes, partial fills shrink
    them, and the journal records each of those float operations.
    """

    def __init__(self, bid: int, ask: int, m: float, h: float):
        self.m = m
        self.h = h
        self.bid = bid
        self.ask = ask
        # Each side's prices, shifted only when its quote moves, so the
        # journal holds one shared int object per level.
        self._buy_ticks = [bid - i for i in range(10)]
        self._sell_ticks = [ask + i for i in range(10)]
        self.buy_sizes = [size_at(p, bid, ask, m, h) for p in self._buy_ticks]
        self.sell_sizes = [size_at(p, bid, ask, m, h) for p in self._sell_ticks]
        self.journal: list[tuple[str, Side, int, float]] = [
            ("init", side, lv.price, lv.size)
            for side in (Side.BUY, Side.SELL) for lv in self.levels(side)]

    def _side(self, side: Side) -> tuple[list[float], list[int], int]:
        """(sizes, prices, outward tick step) of one side."""
        if side is Side.BUY:
            return self.buy_sizes, self._buy_ticks, -1
        return self.sell_sizes, self._sell_ticks, 1

    @property
    def spread(self) -> int:
        return self.ask - self.bid

    @property
    def mid(self) -> float:
        return (self.bid + self.ask) / 2.0

    def depth(self, side: Side, price: int) -> int:
        """Ticks from the side's best quote out to `price`."""
        return self.bid - price if side is Side.BUY else price - self.ask

    def prices(self, side: Side) -> list[int]:
        return list(self._side(side)[1])

    def levels(self, side: Side) -> list[PriceLevel]:
        sizes, ticks, _ = self._side(side)
        return [PriceLevel(p, size) for p, size in zip(ticks, sizes)]

    def size_of(self, side: Side, price: int) -> float:
        depth = self.depth(side, price)
        if not 0 <= depth < 10:
            raise ValueError(f"no resting {side.value} level at {price}")
        return self._side(side)[0][depth]

    # --- journaled mutations -------------------------------------------

    def add_size(self, side: Side, depth: int, amount: float, tag: str) -> None:
        sizes, ticks, _ = self._side(side)
        sizes[depth] += amount
        self.journal.append((tag, side, ticks[depth], amount))

    def take_best(self, side: Side, amount: float) -> None:
        sizes, ticks, _ = self._side(side)
        sizes[0] -= amount
        self.journal.append(("trade", side, ticks[0], amount))

    def consume_best(self, side: Side) -> float:
        """Remove the best level, move the quote one tick outward and
        append a far level sized at the new quotes; returns the removed
        size."""
        sizes, ticks, step = self._side(side)
        size = sizes.pop(0)
        price = ticks.pop(0)
        self.journal.append(("consume", side, price, size))
        ticks.append(ticks[-1] + step)
        self.bid, self.ask = self._buy_ticks[0], self._sell_ticks[0]
        sizes.append(size_at(ticks[-1], self.bid, self.ask, self.m, self.h))
        self.journal.append(("regen", side, ticks[-1], sizes[-1]))
        return size

    # --- invariants -----------------------------------------------------

    def check(self) -> None:
        """Ten positive sizes per side and an uncrossed book."""
        for side in (Side.BUY, Side.SELL):
            sizes, ticks, _ = self._side(side)
            if len(sizes) != 10:
                raise DegenerateBookError(
                    f"{side.value} side holds {len(sizes)} levels, want 10")
            for p, size in zip(ticks, sizes):
                if not size > 0:
                    raise DegenerateBookError(
                        f"{side.value} level {p} has non-positive size {size!r}")
        if self.bid >= self.ask:
            raise DegenerateBookError(
                f"book is crossed: bid {self.bid} >= ask {self.ask}")


def init_book(config: SimConfig) -> OrderBook:
    """Build the starting book: ten contiguous levels per side around the
    configured bid and spread, sized by the kernel at those anchors."""
    config.validate()
    return OrderBook(config.initial_bid, config.initial_bid + config.initial_spread,
                     config.m, config.h)


def apply_order(book: OrderBook, agent: FluidAgent) -> InteractionOutcome:
    """Apply one agent to the book and report the interaction.

    Active means the agent's price is the opposite best quote; anything
    else rests passively on the agent's own side. A buy residual from a
    full fill rests on the sell side's new best level, a sell residual
    on the buy side's new best.
    """
    own = agent.side
    opp = own.other
    opposite_best = book.ask if own is Side.BUY else book.bid
    active = agent.price == opposite_best
    depth = book.depth(own, agent.price)
    if not active and not 0 <= depth < 10:
        raise ValueError(
            f"{own.value} price {agent.price} is neither the opposite best "
            f"nor a resting {own.value} level")

    mid_before = book.mid
    spread_before = book.spread
    obstacle_size = book.size_of(opp, opposite_best)
    obstacle_notional = obstacle_size * opposite_best
    order_notional = agent.size * agent.price

    if not active:
        book.add_size(own, depth, agent.size, "passive")
        return InteractionOutcome(
            traded_volume=0.0, price_change=0.0, spread_before=spread_before,
            obstacle_notional=obstacle_notional, order_notional=order_notional,
            collision=False)

    if agent.size >= obstacle_size:
        volume = book.consume_best(opp)
        residual = agent.size - volume
        if residual > 0.0:
            book.add_size(opp, 0, residual, "residual")
    else:
        volume = agent.size
        book.take_best(opp, volume)

    return InteractionOutcome(
        traded_volume=volume, price_change=book.mid - mid_before,
        spread_before=spread_before, obstacle_notional=obstacle_notional,
        order_notional=order_notional, collision=True)


@dataclass
class ReconcileReport:
    """Outcome of replaying the journal against the live book."""

    exact: bool
    initial: dict[Side, float]
    passive_added: dict[Side, float]
    residual_added: dict[Side, float]
    regen_added: dict[Side, float]
    traded_removed: dict[Side, float]
    identity_gap: dict[Side, float] = field(default_factory=dict)


def reconcile(book: OrderBook) -> ReconcileReport:
    """Replay the journal and compare with the live book.

    The replay repeats the same float operations in the same order, so
    `exact` demands bitwise equality of every level. The aggregate
    identity (initial + added - removed vs resting total) re-sums the
    same amounts in a different association and is reported as a gap,
    which is zero only up to float rounding.
    """
    sizes: dict[Side, dict[int, float]] = {Side.BUY: {}, Side.SELL: {}}
    agg = {name: {Side.BUY: 0.0, Side.SELL: 0.0}
           for name in ("init", "passive", "residual", "regen", "trade", "consume")}
    for op, side, price, amount in book.journal:
        agg[op][side] += amount
        if op in ("init", "regen"):
            sizes[side][price] = amount
        elif op in ("passive", "residual"):
            sizes[side][price] += amount
        elif op == "trade":
            sizes[side][price] -= amount
        elif op == "consume":
            del sizes[side][price]

    live = {side: {lv.price: lv.size for lv in book.levels(side)}
            for side in (Side.BUY, Side.SELL)}
    gap = {}
    for side in (Side.BUY, Side.SELL):
        expected = (agg["init"][side] + agg["passive"][side] + agg["residual"][side]
                    + agg["regen"][side] - agg["trade"][side] - agg["consume"][side])
        gap[side] = abs(sum(live[side].values()) - expected)

    removed = {s: agg["trade"][s] + agg["consume"][s] for s in (Side.BUY, Side.SELL)}
    return ReconcileReport(
        exact=sizes == live, initial=agg["init"], passive_added=agg["passive"],
        residual_added=agg["residual"], regen_added=agg["regen"],
        traded_removed=removed, identity_gap=gap)
