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
from .physics import DegenerateBookError, kernel_weight


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


# Module-level members for the hot paths: `Side.BUY` is a Python-level
# Enum descriptor lookup, a global is a dict hit.
BUY, SELL = Side


@dataclass
class PriceLevel:
    price: int
    size: float


@dataclass(slots=True)
class FluidAgent:
    """One incoming financial agent: side, integer price, positive size."""

    side: Side
    price: int
    size: float


@dataclass(slots=True)
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


_positive = (0.0).__lt__  # a C predicate for check()'s common case


class SizeMemo(dict):
    """`physics.size_at` for one (m, h), with `kernel_weight(r, h)`
    memoised by integer tick offset r: the same float operations, so the
    same bits. The book keeps the run's only one; it grows with the
    spread."""

    def __init__(self, m: float, h: float):
        super().__init__()
        self.m = m
        self.h = h

    def __missing__(self, r: int) -> float:
        weight = self[r] = kernel_weight(r, self.h)
        return weight

    def size_at(self, price: int, bid: int, ask: int) -> float:
        return self.m * (self[price - bid] + self[price - ask])


class OrderBook:
    """Two quotes and ten sizes per side, indexed by depth from the best.

    Level i sits at `bid - i` on the buy side and `ask + i` on the sell
    side, so ordering, contiguity and the level count hold by
    construction. Passive orders add to sizes, partial fills shrink
    them, and the journal records each of those float operations. The
    book holds the run's kernel (m, h): `size_at` sizes its own levels
    and the sampler's agents.
    """

    def __init__(self, bid: int, ask: int, m: float, h: float):
        self.bid = bid
        self.ask = ask
        self._sizes = SizeMemo(m, h)
        # Each side's prices, shifted only when its quote moves, so the
        # journal holds one shared int object per level.
        self._buy_ticks = [bid - i for i in range(10)]
        self._sell_ticks = [ask + i for i in range(10)]
        self.buy_sizes = [self.size_at(p) for p in self._buy_ticks]
        self.sell_sizes = [self.size_at(p) for p in self._sell_ticks]
        self.journal: list[tuple[str, Side, int, float]] = [
            ("init", side, lv.price, lv.size)
            for side in (BUY, SELL) for lv in self.levels(side)]

    def _side(self, side: Side) -> tuple[list[float], list[int], int]:
        """(sizes, prices, outward tick step) of one side."""
        if side is BUY:
            return self.buy_sizes, self._buy_ticks, -1
        return self.sell_sizes, self._sell_ticks, 1

    def size_at(self, price: int) -> float:
        """Kernel size at `price` against the current quotes."""
        return self._sizes.size_at(price, self.bid, self.ask)

    @property
    def spread(self) -> int:
        return self.ask - self.bid

    def depth(self, side: Side, price: int) -> int:
        """Ticks from the side's best quote out to `price`."""
        return self.bid - price if side is BUY else price - self.ask

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
        far = ticks[-1] + step
        ticks.append(far)
        self.bid, self.ask = self._buy_ticks[0], self._sell_ticks[0]
        far_size = self.size_at(far)
        sizes.append(far_size)
        self.journal.append(("regen", side, far, far_size))
        return size

    # --- invariants -----------------------------------------------------

    def check(self) -> None:
        """Ten positive sizes per side and an uncrossed book.

        The common case is decided in C; only a failure walks the levels
        to name the offending side and price. `0.0 < size` is false for
        zero, negative and NaN sizes alike.
        """
        buys, sells = self.buy_sizes, self.sell_sizes
        if (len(buys) == 10 and len(sells) == 10 and self.bid < self.ask
                and all(map(_positive, buys)) and all(map(_positive, sells))):
            return
        for side in (BUY, SELL):
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
    own, price, size = agent.side, agent.price, agent.size
    bid, ask = book.bid, book.ask
    if own is BUY:
        opp, opposite_best, depth = SELL, ask, bid - price
        obstacle_size = book.sell_sizes[0]
    else:
        opp, opposite_best, depth = BUY, bid, price - ask
        obstacle_size = book.buy_sizes[0]
    spread_before = ask - bid
    obstacle_notional = obstacle_size * opposite_best
    order_notional = size * price

    if price != opposite_best:
        if not 0 <= depth < 10:
            raise ValueError(
                f"{own.value} price {price} is neither the opposite best "
                f"nor a resting {own.value} level")
        book.add_size(own, depth, size, "passive")
        return InteractionOutcome(0.0, 0.0, spread_before, obstacle_notional,
                                  order_notional, False)

    if size >= obstacle_size:
        volume = book.consume_best(opp)
        residual = size - volume
        if residual > 0.0:
            book.add_size(opp, 0, residual, "residual")
    else:
        volume = size
        book.take_best(opp, volume)

    price_change = (book.bid + book.ask) / 2.0 - (bid + ask) / 2.0
    return InteractionOutcome(volume, price_change, spread_before,
                              obstacle_notional, order_notional, True)


_TAGS = ("init", "passive", "residual", "regen", "trade", "consume")


@dataclass
class ReconcileReport:
    """Outcome of replaying the journal against the live book."""

    exact: bool
    initial: dict[Side, float]
    passive_added: dict[Side, float]
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
    # The loop picks each side's dicts by identity: indexing a Side-keyed
    # dict per entry would hash an Enum, which is Python-level.
    buy_sizes: dict[int, float] = {}
    sell_sizes: dict[int, float] = {}
    buy_agg, sell_agg = dict.fromkeys(_TAGS, 0.0), dict.fromkeys(_TAGS, 0.0)
    for op, side, price, amount in book.journal:
        if side is BUY:
            sizes, totals = buy_sizes, buy_agg
        else:
            sizes, totals = sell_sizes, sell_agg
        totals[op] += amount
        if op == "init" or op == "regen":
            sizes[price] = amount
        elif op == "passive" or op == "residual":
            sizes[price] += amount
        elif op == "trade":
            sizes[price] -= amount
        elif op == "consume":
            del sizes[price]

    live = {BUY: dict(zip(book._buy_ticks, book.buy_sizes)),
            SELL: dict(zip(book._sell_ticks, book.sell_sizes))}
    agg = {BUY: buy_agg, SELL: sell_agg}
    gap = {}
    for side, a in agg.items():
        expected = (a["init"] + a["passive"] + a["residual"] + a["regen"]
                    - a["trade"] - a["consume"])
        gap[side] = abs(sum(live[side].values()) - expected)

    def by_side(tag: str) -> dict[Side, float]:
        return {side: a[tag] for side, a in agg.items()}

    removed = {side: a["trade"] + a["consume"] for side, a in agg.items()}
    return ReconcileReport(
        exact=buy_sizes == live[BUY] and sell_sizes == live[SELL],
        initial=by_side("init"),
        passive_added=by_side("passive"), traded_removed=removed,
        identity_gap=gap)
