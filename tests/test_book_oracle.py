"""A stateful differential test of the order book against a naive model.

The model is written from README's "Model" section and shares no code
with `marketflow.book`: each side is a `{price: size}` dict with stored
prices, so a full fill deletes one key and adds another. Hypothesis
draws the agents directly, not through the sampler: either side, a price
at the opposite best or at one of the ten own levels, and a size that is
the kernel size, an exact tie with the obstacle, one ulp below the tie
or any positive normal float. So the passive, partial, full and residual
paths and the boundary between the last two are all reached, and
machines that start at bids 10-30 reach the price floor.

After every rule the book and the model agree exactly, with `==` on
floats: the quotes, the sizes by price and the journal, and after every
agent the volume and both notionals. A corruption rule alters a copy of
the journal and checks `reconcile`'s verdict on it (see `_neutral`).
"""

import copy
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from marketflow.book import OrderBook, Side, apply_order, reconcile
from marketflow.config import SimConfig
from marketflow.physics import DegenerateBookError

BUY, SELL = Side


def _weight(r, h):
    # README: W(r; h) = exp(-r^2/h^2) / (h^3 * pi^(3/2)), in the package's
    # operation order so that the bits agree
    return math.exp(-(r * r) / (h * h)) / (h * h * h * math.pi ** 1.5)


class Model:
    """README's book: ten levels per side at stored integer prices."""

    def __init__(self, bid, ask, m, h):
        self.bid, self.ask, self.m, self.h = bid, ask, m, h
        self.levels = {BUY: {}, SELL: {}}
        self.journal = []
        for side, prices in ((BUY, range(bid, bid - 10, -1)),
                             (SELL, range(ask, ask + 10))):
            for price in prices:
                self.levels[side][price] = size = self.size_at(price)
                self.journal.append(("init", side, price, size))

    def size_at(self, price):
        return self.m * (_weight(price - self.bid, self.h)
                         + _weight(price - self.ask, self.h))

    def apply(self, side, price, size):
        """(volume, obstacle notional, order notional) of one agent. At
        the price floor it raises `DegenerateBookError` and changes
        nothing."""
        opp = SELL if side is BUY else BUY
        best = self.ask if side is BUY else self.bid
        levels = self.levels[opp]
        obstacle = levels[best]
        notionals = (obstacle * best, size * price)
        if price != best:  # rests on one of its own ten levels
            self.levels[side][price] += size
            self.journal.append(("passive", side, price, size))
            return (0.0, *notionals)
        if size < obstacle:  # partial fill: the level shrinks in place
            levels[best] -= size
            self.journal.append(("trade", opp, best, size))
            return (size, *notionals)
        # full fill: the level goes, its quote moves a tick outward and
        # the side regenerates one level at the far end
        outward = 1 if opp is SELL else -1
        far = best + 10 * outward
        if far < 1:
            raise DegenerateBookError("price floor")
        del levels[best]
        if opp is SELL:
            self.ask += 1
        else:
            self.bid -= 1
        levels[far] = regen = self.size_at(far)
        self.journal += [("consume", opp, best, obstacle), ("regen", opp, far, regen)]
        residual = size - obstacle
        if residual > 0.0:  # rests on the traded side's new best
            levels[best + outward] += residual
            self.journal.append(("residual", opp, best + outward, residual))
        return (obstacle, *notionals)


def _quote_history(journal):
    """Per side, the prices of its first init and of its consumes and
    regens, in order: the only entries at which the replay reads or
    moves a quote."""
    history = {BUY: [], SELL: []}
    for op, side, price, _ in journal:
        if op in ("consume", "regen") or (op == "init" and not history[side]):
            history[side].append((op, price))
    return history


def _levels_ok(journal, book):
    """README's operations replayed on each level alone: a level is set
    (init, regen) before anything else touches it, stays positive, is
    consumed at exactly its running size, and what is left is `book`."""
    sizes = {}
    for op, side, price, amount in journal:
        key = (side, price)
        if op in ("init", "regen"):
            size = amount
        elif key not in sizes:
            return False
        elif op == "consume":
            if sizes.pop(key) != amount:
                return False
            continue
        elif op == "trade":
            size = sizes[key] - amount
        else:
            size = sizes[key] + amount
        if not size > 0.0:
            return False
        sizes[key] = size
    return sizes == ({(BUY, book.bid - i): s for i, s in enumerate(book.buy_sizes)}
                     | {(SELL, book.ask + i): s for i, s in enumerate(book.sell_sizes)})


def _neutral(book, journal):
    """Whether a corrupted journal still describes `book` exactly, so that
    `reconcile` must accept it. It does when it leaves each side's quote
    history alone and every level's replay still passes. The corruptions
    this admits, each neutral for the reason given:

    - swapping two equal entries: nothing changed;
    - swapping two entries at different levels, unless both are consumes
      or regens of one side, or one is a side's first init and the other
      is on that side (say a regen and the residual after it, or a trade
      and a passive): the replay applies each to its own level, and
      neither moves a quote the other reads;
    - moving, dropping or swapping a passive, residual or trade, or
      shifting any amount but a consume's by one ulp, when rounding
      absorbs the change before the level is compared, as in
      `x + a == x + nextafter(a)` or `(x + a) + b == (x + b) + a`: the
      replayed sizes are the same bits from there on.

    Every other corruption moves a quote entry, which the position
    checks and the final quotes catch, or changes a size that the replay
    compares, and must be rejected.
    """
    return (_quote_history(journal) == _quote_history(book.journal)
            and _levels_ok(journal, book))


def _corruptions(journal, i):
    """(kind, corrupted copy) for each way of corrupting entry i: its
    amount one ulp down or up, its price one tick down or up, a drop, and
    a swap with each neighbour, each entry at its level and the previous
    and next entry of its tag and side."""
    op, side, price, amount = journal[i]
    for toward in (0.0, math.inf):
        yield "ulp", [*journal[:i], (op, side, price, math.nextafter(amount, toward)),
                      *journal[i + 1:]]
    for step in (-1, 1):
        yield "tick", [*journal[:i], (op, side, price + step, amount), *journal[i + 1:]]
    yield "drop", journal[:i] + journal[i + 1:]
    same = [k for k, entry in enumerate(journal) if entry[:2] == (op, side)]
    at = same.index(i)
    partners = {i - 1, i + 1, *same[max(at - 1, 0):at + 2],
                *(k for k, entry in enumerate(journal) if entry[1:3] == (side, price))}
    for j in sorted(partners - {-1, i, len(journal)}):
        swapped = list(journal)
        swapped[i], swapped[j] = journal[j], journal[i]
        yield "swap", swapped


# (side, own depth or None for the opposite best, size or how to size it)
AGENTS = st.tuples(
    st.sampled_from(Side),
    st.none() | st.integers(0, 9),
    st.sampled_from(("kernel", "tie", "below tie"))
    | st.floats(sys.float_info.min, 1e300, allow_subnormal=False))
AGENT_LISTS = st.lists(AGENTS, min_size=1, max_size=10)


class BookMachine(RuleBasedStateMachine):
    @initialize(bid=st.one_of(st.integers(10, 30), st.just(3681)),
                spread=st.integers(1, 20), agents=AGENT_LISTS)
    def start(self, bid, spread, agents):
        """A fresh book, and agents, so that the first corruption finds
        more than the inits."""
        config = SimConfig(initial_bid=bid, initial_spread=spread)
        self.book = OrderBook(config)
        self.model = Model(bid, bid + spread, config.m, config.h)
        self.act(agents)

    @rule(agents=AGENT_LISTS)
    def act(self, agents):
        """A few agents, each compared on its own: hypothesis ends most
        runs after a handful of rules."""
        for side, depth, size in agents:
            self.agent(side, depth, size)
            self.compare()

    def agent(self, side, depth, size):
        """One agent at the opposite best (depth None) or at own level
        `depth`."""
        model = self.model
        best = model.ask if side is BUY else model.bid
        if depth is None:
            price = best
        else:
            price = model.bid - depth if side is BUY else model.ask + depth
        obstacle = model.levels[SELL if side is BUY else BUY][best]
        if size == "kernel":
            size = model.size_at(price)
        elif size == "tie":
            size = obstacle
        elif size == "below tie":
            size = math.nextafter(obstacle, 0.0)
        before = len(model.journal)
        try:
            want = model.apply(side, price, size)
        except DegenerateBookError:
            event("price floor")
            with pytest.raises(DegenerateBookError, match="price floor"):
                apply_order(self.book, (side, price, size))
            return  # `compare` finds both books unchanged
        assert apply_order(self.book, (side, price, size)) == (*want, model.bid, model.ask)
        assert self.book.journal[before:] == model.journal[before:]

    @rule(data=st.data())
    def corrupt(self, data):
        """Every corruption of one entry, each on its own copy of the
        journal; `reconcile` accepts each exactly when it is neutral."""
        journal = self.book.journal
        # the tag first, so that the twenty inits do not crowd out the
        # rarer consumes and trades
        tag = data.draw(st.sampled_from(sorted({entry[0] for entry in journal})))
        i = data.draw(st.sampled_from([k for k, entry in enumerate(journal)
                                       if entry[0] == tag]))
        for kind, corrupted in _corruptions(journal, i):
            book = copy.copy(self.book)
            book.journal = corrupted
            neutral = _neutral(self.book, corrupted)
            event(f"{kind} {tag}: {'neutral' if neutral else 'rejected'}")
            assert reconcile(book) is neutral, (kind, i)

    def compare(self):
        """The quotes and the sizes by price, and README's invariants on
        the model alone."""
        book, model = self.book, self.model
        assert (book.bid, book.ask) == (model.bid, model.ask)
        assert {book.bid - i: s for i, s in enumerate(book.buy_sizes)} == model.levels[BUY]
        assert {book.ask + i: s for i, s in enumerate(book.sell_sizes)} == model.levels[SELL]
        assert sorted(model.levels[BUY]) == list(range(model.bid - 9, model.bid + 1))
        assert sorted(model.levels[SELL]) == list(range(model.ask, model.ask + 10))
        assert model.bid < model.ask
        assert all(s > 0.0 for levels in model.levels.values() for s in levels.values())

    @invariant()
    def agree(self):
        self.compare()
        assert self.book.journal == self.model.journal
        assert reconcile(self.book)


BookMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=12,
                                         derandomize=True, deadline=None)
TestBookOracle = BookMachine.TestCase
