"""Order book state and the matching rule applied to incoming agents.

The book holds ten levels per side at contiguous integer ticks, stored
as the two quotes plus ten sizes per side. An incoming agent either
rests in the book (passive) or trades against the best opposite level
(active). Fills are capped at that single level: a full fill removes
it, moves that quote one tick outward, appends one far-end level, and
any residual agent size rests on the traded side's new best level.
An agent arrives as the sampler's draw `(buy, depth)`, with depth None
for a collision; `apply_order` prices and sizes it from the book, makes
every mutation itself, a full fill included, journals each as `(tag,
buy, price, amount)`, with `buy` True for an entry on the buy side, and
returns a tuple of what it did.

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

from .config import SimConfig
from .physics import DegenerateBookError, kernel_weight


class OrderBook:
    """Two quotes and ten sizes per side, indexed by depth from the best.

    Level i sits at `bid - i` on the buy side and `ask + i` on the sell
    side: prices are derived, never stored, so ordering, contiguity and
    the level count hold by construction. Passive orders add to sizes,
    partial fills shrink them, and the journal records each of those
    float operations as `(tag, buy, price, amount)` at its level's price
    and side (`buy` True for the buy side). The book holds the run's
    kernel (m, h) and its weights by tick offset, `weights[r] =
    kernel_weight(r, h)` for r = 0 ... spread + 9; a full fill widens the
    spread by one and appends one weight. A level d ticks outside its
    nearer quote is d + spread ticks from the other, and the kernel is
    even in an integer offset, so its size `m * (W(p - bid; h) + W(p -
    ask; h))` is `m * (weights[d] + weights[d + spread])`. The starting
    levels, the far level after a full fill and every agent (at depth 0
    for a collision) are all sized that way; float addition commutes, so
    the two starting sides hold the same sizes. The starting quotes are
    the config's `initial_bid` and `initial_bid + initial_spread`.
    """

    def __init__(self, config: SimConfig):
        bid, m, h = config.initial_bid, config.m, config.h
        ask = bid + config.initial_spread
        self.bid, self.ask, self.m, self.h = bid, ask, m, h
        self.weights = weights = [kernel_weight(r, h) for r in range(ask - bid + 10)]
        self.buy_sizes = [m * (weights[i] + weights[i + ask - bid]) for i in range(10)]
        self.sell_sizes = self.buy_sizes.copy()
        self.journal: list[tuple[str, bool, int, float]] = (
            [("init", True, bid - i, size) for i, size in enumerate(self.buy_sizes)]
            + [("init", False, ask + i, size) for i, size in enumerate(self.sell_sizes)])

    def check(self) -> None:
        """Ten positive sizes per side and an uncrossed book; the first
        violation raises `DegenerateBookError` naming its side, level or
        quotes. `size > 0` is false for zero, negative and NaN sizes
        alike.

        Runs do not call this: `reconcile` witnesses every step. It is
        for the final book and for a book altered by hand.
        """
        for side, sizes, best, step in (("buy", self.buy_sizes, self.bid, -1),
                                        ("sell", self.sell_sizes, self.ask, 1)):
            if len(sizes) != 10:
                raise DegenerateBookError(
                    f"{side} side holds {len(sizes)} levels, want 10")
            for i, size in enumerate(sizes):
                if not size > 0:
                    raise DegenerateBookError(f"{side} level {best + step * i} "
                                              f"has non-positive size {size!r}")
        if self.bid >= self.ask:
            raise DegenerateBookError(
                f"book is crossed: bid {self.bid} >= ask {self.ask}")


def apply_order(book: OrderBook,
                draw: tuple[bool, int | None]) -> tuple[float, float, float, int, int]:
    """Apply one agent, drawn as `(buy, depth)`, and return `(volume,
    obstacle_notional, order_notional, bid, ask)`: the traded volume (0.0
    when it rested), the pre-trade notionals of the obstacle (the best
    opposite level) and of the agent, and the quotes after the trade.
    Only `engine._readout` derives v_T, l and a collision from these.

    A collision (depth None) is active at the opposite best quote; any
    other draw rests on its own level `depth`, at `bid - depth` or `ask +
    depth`. The agent is sized at its level (depth 0 for a collision) as
    `OrderBook` describes. An agent at least as large as the obstacle
    fills it fully: unless that hits the price floor (`DegenerateBookError`,
    book untouched), the quote moves a tick out, the obstacle's size
    leaves, a far level joins, `consume` and `regen` are journaled, and a
    residual rests on that side's new best. A passive entry carries the
    draw's `buy`; every other entry carries `not buy`, the obstacle's side.
    """
    buy, depth = draw
    bid, ask = book.bid, book.ask
    if buy:
        opposite_best, own_sizes, opp_sizes = ask, book.buy_sizes, book.sell_sizes
    else:
        opposite_best, own_sizes, opp_sizes = bid, book.sell_sizes, book.buy_sizes
    obstacle_size = opp_sizes[0]
    obstacle_notional = obstacle_size * opposite_best
    weights = book.weights
    level = 0 if depth is None else depth
    size = book.m * (weights[level] + weights[level + ask - bid])

    if depth is not None:
        price = bid - depth if buy else ask + depth
        own_sizes[depth] += size
        book.journal.append(("passive", buy, price, size))
        return 0.0, obstacle_notional, size * price, bid, ask

    order_notional = size * opposite_best
    if size >= obstacle_size:  # a full fill
        far = ask + 10 if buy else bid - 10
        if far < 1:  # the only path that lowers a price
            raise DegenerateBookError(
                f"price floor: a full fill at bid {bid} (ask {ask}) "
                f"with best sizes {book.buy_sizes[0]!r} (buy) and "
                f"{book.sell_sizes[0]!r} (sell) would put a buy level at price {far}")
        if buy:
            ask = book.ask = ask + 1
        else:
            bid = book.bid = bid - 1
        opp_sizes.pop(0)
        weights.append(kernel_weight(len(weights), book.h))
        far_size = book.m * (weights[9] + weights[-1])  # nine ticks out
        opp_sizes.append(far_size)
        journal = book.journal
        journal += (("consume", not buy, opposite_best, obstacle_size),
                    ("regen", not buy, far, far_size))
        residual = size - obstacle_size
        if residual > 0.0:
            opp_sizes[0] += residual
            journal.append(("residual", not buy, ask if buy else bid, residual))
        return obstacle_size, obstacle_notional, order_notional, bid, ask

    opp_sizes[0] -= size
    book.journal.append(("trade", not buy, opposite_best, size))
    return size, obstacle_notional, order_notional, bid, ask


def reconcile(book: OrderBook) -> bool:
    """Replay the journal; True when the starting quotes are uncrossed,
    every size the replay sets or updates is positive, every consume
    takes its side's best level and every regen lands nine ticks past the
    moved quote, and the replay rebuilds the live book's quotes, and both
    its sides bit for bit.

    Each entry's bool `buy` picks the side it replays on. The replay
    repeats the book's float operations in the same order, so a size
    changed without a journal entry, or an entry whose amount or price
    the book did not apply, shows up as a mismatch. These checks stand
    in for a per-tick `OrderBook.check`.
    """
    buy_sizes: dict[int, float] = {}
    sell_sizes: dict[int, float] = {}
    # The replayed quotes; unset, they cannot cross.
    bid, ask = -math.inf, math.inf
    try:
        for op, side, price, amount in book.journal:
            sizes = buy_sizes if side else sell_sizes
            if op == "passive" or op == "residual":
                size = sizes[price] + amount
            elif op == "trade":
                size = sizes[price] - amount
            elif op == "consume":
                if side:
                    best, bid = bid, bid - 1
                else:
                    best, ask = ask, ask + 1
                if price != best or sizes.pop(price) != amount:
                    return False
                continue
            elif op == "regen":
                if price != (bid - 9 if side else ask + 9):
                    return False
                size = amount
            elif op == "init":
                if not sizes:  # a side's first level is its best
                    bid, ask = (price, ask) if side else (bid, price)
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
