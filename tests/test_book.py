"""Unit tests for book construction, matching, and the volume ledger."""

import gc
import itertools
import os
import tracemalloc

import pytest

import marketflow
from marketflow.agents import AgentSampler
from marketflow.book import OrderBook, apply_order, reconcile
from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.physics import DegenerateBookError, kernel_weight
from reference import size_at


def _book(**kwargs):
    return OrderBook(SimConfig(**kwargs))


# Each side as a journal entry's `buy` and as `check()` names it; the ids
# are the names these tests have always had in the suite.
SIDES = pytest.mark.parametrize("buy,name", [(True, "buy"), (False, "sell")],
                                ids=["Side.BUY", "Side.SELL"])


def _assert_weights_exact(book):
    # one weight per tick of spread, plus nine: the list is bounded with
    # the spread, and entry r is the kernel weight r ticks out
    assert book.weights == [kernel_weight(r, book.h)
                            for r in range(book.ask - book.bid + 10)]


class TestInitBook:
    def test_reference_layout(self):
        book = _book(initial_bid=3681, initial_spread=1)
        assert book.bid == 3681
        assert book.ask == 3682
        assert [book.bid - i for i in range(len(book.buy_sizes))] == \
            list(range(3681, 3671, -1))
        assert [book.ask + i for i in range(len(book.sell_sizes))] == \
            list(range(3682, 3692))

    def test_wide_spread_layout(self):
        book = _book(initial_bid=3681, initial_spread=20)
        assert book.ask == 3701
        assert book.ask - book.bid == 20

    def test_sizes_come_from_the_kernel(self):
        book = _book()
        for sizes, best, step in ((book.buy_sizes, book.bid, -1),
                                  (book.sell_sizes, book.ask, 1)):
            for i, size in enumerate(sizes):
                assert size == size_at(best + step * i, 3681, 3682, 2000.0, 10.0)

    def test_invariants_hold(self):
        for spread in (1, 2, 20):
            book = _book(initial_spread=spread)
            book.check()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            OrderBook(SimConfig(initial_spread=0))
        with pytest.raises(ValueError):
            OrderBook(SimConfig(initial_bid=0))
        # one weight per tick of spread: the list is bounded with the spread
        _assert_weights_exact(OrderBook(SimConfig(initial_spread=2**16)))
        with pytest.raises(ValueError, match="initial_spread must be <= 65536"):
            SimConfig(initial_spread=2**16 + 1)


def _kernel_size(price, bid, ask):
    # the reference size at the default m and h
    return size_at(price, bid, ask, 2000.0, 10.0)


class TestPassiveOrders:
    def test_buy_limit_joins_its_level(self):
        book = _book()
        before = book.buy_sizes[3]
        volume, _, _, bid, ask = apply_order(book, (True, 3))
        assert book.buy_sizes[3] == before + _kernel_size(3678, 3681, 3682)
        assert volume == 0.0
        assert (bid, ask) == (3681, 3682)

    def test_quotes_unchanged(self):
        book = _book()
        apply_order(book, (False, 8))
        assert book.sell_sizes[8] == 2 * _kernel_size(3690, 3681, 3682)
        assert (book.bid, book.ask) == (3681, 3682)


class TestActiveOrders:
    # A collision on an untouched best meets a level of its own size, an
    # exact tie; a second one meets the smaller old depth-1 level and
    # leaves a residual. A passive draw at the opposite best doubles the
    # obstacle, so the next collision fills it partially.

    def test_every_agent_is_sized_by_the_kernel_at_its_price(self):
        # README's rule, m * (W(p - bid; h) + W(p - ask; h)) at the agent's
        # price, for all 22 draws on fresh books and on books one full fill in
        for spread, fills, buy, depth in itertools.product(
                (1, 20, 2**16), (0, 1), (True, False), (None, *range(10))):
            book = _book(initial_spread=spread)
            for _ in range(fills):
                apply_order(book, (True, None))
            bid, ask, before = book.bid, book.ask, len(book.journal)
            if depth is None:
                price = ask if buy else bid
            else:
                price = bid - depth if buy else ask + depth
            _, _, order_notional, _, _ = apply_order(book, (buy, depth))
            assert order_notional == size_at(price, bid, ask, book.m, book.h) * price, \
                (spread, fills, buy, depth)
            # a passive entry is on the agent's side, every other on the
            # obstacle's
            assert all(side is (buy if op == "passive" else not buy)
                       for op, side, _, _ in book.journal[before:]), \
                (spread, fills, buy, depth)
        # at the reference configuration the best-quote size is about 0.7148
        _, _, order_notional, _, _ = apply_order(_book(), (False, None))
        assert abs(order_notional / 3681 - 0.7148) < 5e-5

    def test_exact_full_fill_moves_ask_up_one_tick(self):
        book = _book()
        ask_size = book.sell_sizes[0]
        volume, _, _, bid, ask = apply_order(book, (True, None))
        assert volume == ask_size
        assert (bid, ask) == (book.bid, book.ask) == (3681, 3683)
        assert book.ask - book.bid == 2
        assert [entry[0] for entry in book.journal[20:]] == ["consume", "regen"]

    def test_sell_full_fill_moves_bid_down(self):
        book = _book()
        _, _, _, bid, ask = apply_order(book, (False, None))
        assert (bid, ask) == (book.bid, book.ask) == (3680, 3682)

    def test_full_fill_regenerates_the_far_end(self):
        book = _book()
        apply_order(book, (True, None))
        assert len(book.sell_sizes) == 10
        assert book.ask + len(book.sell_sizes) - 1 == 3692
        # sized against the post-removal anchors
        assert book.sell_sizes[3692 - book.ask] == _kernel_size(3692, 3681, 3683)

    def test_residual_rests_on_the_new_best(self):
        book = _book()
        apply_order(book, (True, None))
        obstacle = book.sell_sizes[0]
        next_before = book.sell_sizes[1]
        agent_size = _kernel_size(3683, 3681, 3683)
        assert agent_size > obstacle
        volume, _, _, _, ask = apply_order(book, (True, None))
        assert volume == obstacle
        assert ask == book.ask == 3684
        # the posted residual is agent size minus the consumed volume
        assert book.sell_sizes[0] == next_before + (agent_size - obstacle)
        assert book.journal[-1] == ("residual", False, 3684, agent_size - obstacle)

    def test_partial_fill_shrinks_the_level_in_place(self):
        book = _book()
        apply_order(book, (True, 0))
        bid_size = book.buy_sizes[0]
        agent_size = _kernel_size(3681, 3681, 3682)
        assert bid_size == 2 * agent_size
        volume, _, _, bid, ask = apply_order(book, (False, None))
        assert volume == agent_size
        assert (bid, ask) == (book.bid, book.ask) == (3681, 3682)
        assert book.buy_sizes[0] == bid_size - agent_size

    def test_outcome_captures_pretrade_notionals(self):
        book = _book()
        apply_order(book, (False, 0))
        ask_size = book.sell_sizes[0]
        agent_size = _kernel_size(3682, 3681, 3682)
        volume, obstacle_notional, order_notional, _, _ = \
            apply_order(book, (True, None))
        assert obstacle_notional == ask_size * 3682
        assert order_notional == agent_size * 3682
        assert volume == agent_size

    def test_deterministic(self):
        results = []
        for _ in range(2):
            book = _book()
            out = apply_order(book, (True, None))
            results.append((out, book.ask, list(book.sell_sizes)))
        assert results[0] == results[1]


class TestRegeneration:
    def test_buy_side_extends_downward(self):
        book = _book()
        apply_order(book, (False, None))
        assert book.bid - (len(book.buy_sizes) - 1) == 3671
        assert book.buy_sizes[book.bid - 3671] == _kernel_size(3671, 3680, 3682)


class TestCheck:
    def test_non_positive_size_is_a_typed_error(self):
        book = _book()
        book.buy_sizes[3] = -1e6
        with pytest.raises(DegenerateBookError, match="buy level 3678"):
            book.check()

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("depth", [0, 5, 9])
    @SIDES
    def test_every_level_is_checked(self, buy, name, depth, size):
        book = _book()
        price = 3681 - depth if buy else 3682 + depth
        (book.buy_sizes if buy else book.sell_sizes)[depth] = size
        with pytest.raises(DegenerateBookError,
                           match=f"^{name} level {price} "):
            book.check()

    @SIDES
    def test_level_count_is_checked(self, buy, name):
        book = _book()
        (book.buy_sizes if buy else book.sell_sizes).pop()
        with pytest.raises(DegenerateBookError,
                           match=f"^{name} side holds 9 levels, want 10$"):
            book.check()

    def test_crossed_book_is_a_typed_error(self):
        book = _book()
        book.ask = book.bid
        with pytest.raises(DegenerateBookError,
                           match="crossed: bid 3681 >= ask 3681"):
            book.check()


class TestSpreadDirection:
    def test_spread_never_narrows(self):
        config = SimConfig(collision_probability=0.7, seed=5)
        book = OrderBook(config)
        sampler = AgentSampler(config)
        spread = book.ask - book.bid
        for _ in range(400):
            apply_order(book, sampler.sample())
            book.check()
            assert book.ask - book.bid >= spread
            spread = book.ask - book.bid


class TestLedger:
    def test_reconciles_exactly_after_random_traffic(self):
        for seed in (0, 1, 2):
            config = SimConfig(collision_probability=0.5, seed=seed)
            book = OrderBook(config)
            sampler = AgentSampler(config)
            for _ in range(300):
                apply_order(book, sampler.sample())
            assert reconcile(book)

    def test_size_changed_without_an_entry_fails(self):
        book = _book()
        book.buy_sizes[2] += 1.0
        assert reconcile(book) is False

    @pytest.mark.parametrize(
        "op", ["init", "passive", "trade", "consume", "regen", "residual"])
    def test_altered_journal_amount_fails(self, op):
        # passive, a passive doubling the ask, a partial fill against it,
        # a full fill on an exact tie and one with a residual
        book = _book()
        for draw in ((True, 1), (False, 0), (True, None), (True, None), (True, None)):
            apply_order(book, draw)
        assert reconcile(book) is True
        i = next(i for i, entry in enumerate(book.journal) if entry[0] == op)
        tag, side, price, amount = book.journal[i]
        book.journal[i] = (tag, side, price, amount + 1.0)
        assert reconcile(book) is False

    def test_non_positive_intermediate_size_fails(self):
        # s - 2s and then -s + 2s are exact, so the final sizes still
        # match the live book, but the replay passes through -s
        book = _book()
        s, p = book.buy_sizes[3], book.bid - 3
        book.journal += [("trade", True, p, 2 * s),
                         ("passive", True, p, 2 * s)]
        assert reconcile(book) is False

    @pytest.mark.parametrize("op", ["passive", "trade", "residual", "consume"])
    def test_entry_at_no_live_level_fails(self, op):
        book = _book()
        book.journal.append((op, True, 5, 1.0))
        assert reconcile(book) is False

    def test_consume_below_the_best_fails(self):
        # consuming depth 3 and regenerating it in place leaves the same
        # sizes, but a full fill only ever takes the best level
        book = _book()
        s, p = book.buy_sizes[3], book.bid - 3
        book.journal += [("consume", True, p, s), ("regen", True, p, s)]
        assert reconcile(book) is False

    def test_consumes_out_of_price_order_fail(self):
        # two full fills consume the ask and then the next tick; swapped,
        # the regenerated levels and the final sizes still line up
        book = _book()
        for _ in range(2):
            apply_order(book, (True, None))
        assert reconcile(book) is True
        first, second = (i for i, entry in enumerate(book.journal)
                         if entry[0] == "consume")
        book.journal[first], book.journal[second] = \
            book.journal[second], book.journal[first]
        assert reconcile(book) is False

    def test_regen_at_the_vacated_best_fails(self):
        # the consumed best moves the ask up a tick, so the regenerated
        # level belongs nine ticks past the new ask, not where it was
        book = _book()
        s, p = book.sell_sizes[0], book.ask
        book.journal += [("consume", False, p, s), ("regen", False, p, s)]
        assert reconcile(book) is False

    @pytest.mark.parametrize("bid,ask", [(3682, 3682), (3690, 3682)])
    def test_crossed_starting_book_fails(self, bid, ask):
        # SimConfig's initial_spread >= 1 rules out such a book; a journal
        # edited to start crossed, with the live book set to match it,
        # must fail
        book = _book()
        book.bid, book.ask = bid, ask
        book.journal = (
            [("init", True, bid - i, s) for i, s in enumerate(book.buy_sizes)]
            + [("init", False, ask + i, s) for i, s in enumerate(book.sell_sizes)])
        assert reconcile(book) is False

    def test_unknown_tag_fails(self):
        book = _book()
        book.journal.append(("refill", True, book.bid, 1.0))
        assert reconcile(book) is False

    def test_journal_tags_cover_every_mutation(self):
        book = _book()
        for draw in ((True, 3), (True, None), (True, None)):
            apply_order(book, draw)
        ops = [entry[0] for entry in book.journal]
        assert ops.count("init") == 20
        assert "passive" in ops
        assert "consume" in ops
        assert "regen" in ops
        assert "residual" in ops

    @pytest.mark.parametrize("p", [0.99, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_weight_list_sizes_match_the_reference(self, p, seed):
        # Over a thousand full fills widen the spread a tick each, so the
        # weight list grows past the kernel's reach; every level the book
        # sized must still be the unmemoised kernel size at its quotes.
        book = run(SimConfig(collision_probability=p, seed=seed, steps=2000)).final_book
        sized = 0
        bid, ask = 3681, 3682  # the default starting quotes
        for op, side, price, amount in book.journal:
            if op == "consume":
                bid, ask = (bid - 1, ask) if side else (bid, ask + 1)
            if op in ("init", "regen"):
                assert amount == size_at(price, bid, ask, 2000.0, 10.0), (op, price)
                sized += 1
        assert (bid, ask) == (book.bid, book.ask)
        assert sized - 20 > 1000
        _assert_weights_exact(book)

    def test_runs_hold_no_weights_afterwards(self):
        # Each book owns its weight list, so no run's weights outlive it:
        # after long high-collision runs at several h, which widen the
        # spread by a tick per full fill, marketflow holds almost nothing.
        run(SimConfig(collision_probability=0.99, steps=50))  # first-call state
        package = os.path.join(os.path.dirname(marketflow.__file__), "*")
        tracemalloc.start()
        try:
            for h in (8.0, 9.0, 10.0, 11.0, 12.0):
                run(SimConfig(h=h, collision_probability=0.99, steps=2000))
            gc.collect()
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, package)])
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in held.statistics("filename")) < 64 * 1024

    def test_journal_records_passive_traffic(self):
        book = _book()
        apply_order(book, (True, 1))
        assert book.journal[-1] == ("passive", True, 3680,
                                    _kernel_size(3680, 3681, 3682))
        assert reconcile(book) is True
