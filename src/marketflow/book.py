"""Order book state and the matching rule applied to incoming agents.

The book holds ten levels per side at contiguous integer ticks, stored
as the two quotes plus ten sizes per side. An incoming agent either
rests in the book (passive) or trades against the best opposite level
(active). Fills are capped at that single level: a full fill removes
it, moves that quote one tick outward, appends one far-end level, and
any residual agent size rests on the traded side's new best level.
An agent is one (side, price, size) tuple; `apply_order` takes it whole,
makes every mutation itself, a full fill included, and returns a tuple
of what it did.

Level prices are derived from the quotes, so ten contiguous ticks per
side, an uncrossed book and positive sizes hold by construction under
`SimConfig`'s rules; nothing scans the book per tick. The end-of-run
replay of the journal rebuilds the final state bit for bit, finds the
starting book uncrossed and every intermediate size positive, and checks
that each consume takes the best level and each regen lands at the new
far end. The one check on the tick path is the price floor of a full
fill.
"""

from __future__ import annotations

import math
from enum import Enum

from .config import SimConfig
from .physics import DegenerateBookError, kernel_weight


class Side(Enum):
    BUY = "buy"
    SELL = "sell"


# Module-level members for the hot paths: `Side.BUY` is a Python-level
# Enum descriptor lookup, a global is a dict hit.
BUY, SELL = Side


class OrderBook:
    """Two quotes and ten sizes per side, indexed by depth from the best.

    Level i sits at `bid - i` on the buy side and `ask + i` on the sell
    side: prices are derived, never stored, so ordering, contiguity and
    the level count hold by construction. Passive orders add to sizes,
    partial fills shrink them, and the journal records each of those
    float operations at its level's price. The book holds the run's
    kernel (m, h) and its weights by tick offset, `weights[r] =
    kernel_weight(r, h)` for r = 0 ... spread + 9; a full fill widens the
    spread by one and appends one weight. A level d ticks outside its
    nearer quote is d + spread ticks from the other, and the kernel is
    even in an integer offset, so its size `m * (W(p - bid; h) + W(p -
    ask; h))` is `m * (weights[d] + weights[d + spread])`. The starting
    levels, the far level after a full fill and the sampler's agents are
    all sized that way; float addition commutes, so the two starting
    sides hold the same sizes. The starting quotes are the config's
    `initial_bid` and `initial_bid + initial_spread`.
    """

    def __init__(self, config: SimConfig):
        bid, m, h = config.initial_bid, config.m, config.h
        ask = bid + config.initial_spread
        self.bid, self.ask, self.m, self.h = bid, ask, m, h
        self.weights = weights = [kernel_weight(r, h) for r in range(ask - bid + 10)]
        self.buy_sizes = [m * (weights[i] + weights[i + ask - bid]) for i in range(10)]
        self.sell_sizes = self.buy_sizes.copy()
        self.journal: list[tuple[str, Side, int, float]] = (
            [("init", BUY, bid - i, size) for i, size in enumerate(self.buy_sizes)]
            + [("init", SELL, ask + i, size) for i, size in enumerate(self.sell_sizes)])

    def check(self) -> None:
        """Ten positive sizes per side and an uncrossed book; the first
        violation raises `DegenerateBookError` naming its side, level or
        quotes. `size > 0` is false for zero, negative and NaN sizes
        alike.

        Runs do not call this: `reconcile` witnesses every step. It is
        for the final book and for a book altered by hand.
        """
        for side, sizes, best, step in ((BUY, self.buy_sizes, self.bid, -1),
                                        (SELL, self.sell_sizes, self.ask, 1)):
            if len(sizes) != 10:
                raise DegenerateBookError(
                    f"{side.value} side holds {len(sizes)} levels, want 10")
            for i, size in enumerate(sizes):
                if not size > 0:
                    raise DegenerateBookError(f"{side.value} level {best + step * i} "
                                              f"has non-positive size {size!r}")
        if self.bid >= self.ask:
            raise DegenerateBookError(
                f"book is crossed: bid {self.bid} >= ask {self.ask}")


def apply_order(book: OrderBook,
                agent: tuple[Side, int, float]) -> tuple[float, float, float, int, int]:
    """Apply one agent `(own, price, size)` and return `(volume,
    obstacle_notional, order_notional, bid, ask)`: the traded volume (0.0
    when it rested), the pre-trade notionals of the obstacle (the best
    opposite level) and of the agent, and the quotes after the trade.
    Only `engine._readout` derives v_T, l and a collision from these.

    Active means the agent's price is the opposite best quote; anything
    else rests passively on the agent's own side. An agent at least as
    large as the obstacle fills it fully: unless that hits the price floor
    (`DegenerateBookError`, book untouched), the quote moves a tick out,
    the obstacle's size leaves, a far level joins, `consume` and `regen`
    are journaled, and a residual rests on that side's new best.
    """
    own, price, size = agent
    bid, ask = book.bid, book.ask
    if own is BUY:
        opp, opposite_best, depth = SELL, ask, bid - price
        own_sizes, opp_sizes = book.buy_sizes, book.sell_sizes
    else:
        opp, opposite_best, depth = BUY, bid, price - ask
        own_sizes, opp_sizes = book.sell_sizes, book.buy_sizes
    obstacle_size = opp_sizes[0]
    obstacle_notional = obstacle_size * opposite_best
    order_notional = size * price

    if price != opposite_best:
        if not 0 <= depth < 10:
            raise ValueError(
                f"{own.value} price {price} is neither the opposite best "
                f"nor a resting {own.value} level")
        own_sizes[depth] += size
        book.journal.append(("passive", own, price, size))
        return 0.0, obstacle_notional, order_notional, bid, ask

    if size >= obstacle_size:  # a full fill
        far = bid - 10 if opp is BUY else ask + 10
        if far < 1:  # the only path that lowers a price
            raise DegenerateBookError(
                f"price floor: a full fill at bid {bid} (ask {ask}) "
                f"with best sizes {book.buy_sizes[0]!r} (buy) and "
                f"{book.sell_sizes[0]!r} (sell) would put a buy level at price {far}")
        if opp is BUY:
            bid = book.bid = bid - 1
        else:
            ask = book.ask = ask + 1
        opp_sizes.pop(0)
        weights = book.weights
        weights.append(kernel_weight(len(weights), book.h))
        far_size = book.m * (weights[9] + weights[-1])  # nine ticks out
        opp_sizes.append(far_size)
        journal = book.journal
        journal += (("consume", opp, opposite_best, obstacle_size),
                    ("regen", opp, far, far_size))
        residual = size - obstacle_size
        if residual > 0.0:
            opp_sizes[0] += residual
            journal.append(("residual", opp, ask if opp is SELL else bid, residual))
        return obstacle_size, obstacle_notional, order_notional, bid, ask

    opp_sizes[0] -= size
    book.journal.append(("trade", opp, opposite_best, size))
    return size, obstacle_notional, order_notional, bid, ask


def reconcile(book: OrderBook) -> bool:
    """Replay the journal; True when the starting quotes are uncrossed,
    every size the replay sets or updates is positive, every consume
    takes its side's best level and every regen lands nine ticks past the
    moved quote, and the replay rebuilds the live book's quotes, and both
    its sides bit for bit.

    The replay repeats the book's float operations in the same order, so
    a size changed without a journal entry, or an entry whose amount or
    price the book did not apply, shows up as a mismatch. These checks
    stand in for a per-tick `OrderBook.check`.
    """
    # The loop picks each side's dict by identity: indexing a Side-keyed
    # dict per entry would hash an Enum, which is Python-level.
    buy_sizes: dict[int, float] = {}
    sell_sizes: dict[int, float] = {}
    # The replayed quotes; unset, they cannot cross.
    bid, ask = -math.inf, math.inf
    try:
        for op, side, price, amount in book.journal:
            sizes = buy_sizes if side is BUY else sell_sizes
            if op == "passive" or op == "residual":
                size = sizes[price] + amount
            elif op == "trade":
                size = sizes[price] - amount
            elif op == "consume":
                if side is BUY:
                    best, bid = bid, bid - 1
                else:
                    best, ask = ask, ask + 1
                if price != best or sizes.pop(price) != amount:
                    return False
                continue
            elif op == "regen":
                if price != (bid - 9 if side is BUY else ask + 9):
                    return False
                size = amount
            elif op == "init":
                if not sizes:  # a side's first level is its best
                    bid, ask = (price, ask) if side is BUY else (bid, price)
                    # The bid never rises and the ask never falls, so an
                    # uncrossed start is an uncrossed book at every step.
                    if not bid < ask:
                        return False
                size = amount
            else:
                return False
            if not size > 0.0:  # also false for NaN
                return False
            sizes[price] = size
    except KeyError:  # no replayed level at that price
        return False
    return (bid == book.bid and ask == book.ask
            and buy_sizes == {book.bid - i: s for i, s in enumerate(book.buy_sizes)}
            and sell_sizes == {book.ask + i: s for i, s in enumerate(book.sell_sizes)})
