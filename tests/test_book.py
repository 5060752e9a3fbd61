"""Unit tests for book construction, matching, and the volume ledger."""

import gc
import os
import tracemalloc

import pytest

import marketflow
from marketflow.agents import AgentSampler
from marketflow.book import (
    OrderBook,
    Side,
    apply_order,
    reconcile,
)
from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.physics import DegenerateBookError, kernel_weight
from reference import size_at


def _book(**kwargs):
    return OrderBook(SimConfig(**kwargs))


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


class TestPassiveOrders:
    def test_buy_limit_joins_its_level(self):
        book = _book()
        before = book.buy_sizes[book.bid - 3678]
        volume, _, _, bid, ask = apply_order(book, (Side.BUY, 3678, 0.25))
        assert book.buy_sizes[book.bid - 3678] == before + 0.25
        assert volume == 0.0
        assert (bid, ask) == (3681, 3682)

    def test_quotes_unchanged(self):
        book = _book()
        apply_order(book, (Side.SELL, 3690, 0.5))
        assert (book.bid, book.ask) == (3681, 3682)

    def test_inadmissible_price_rejected(self):
        book = _book()
        # a seller-side price is not in the buyer's space
        with pytest.raises(ValueError):
            apply_order(book, (Side.BUY, 3683, 0.1))
        with pytest.raises(ValueError):
            apply_order(book, (Side.BUY, 3600, 0.1))


class TestActiveOrders:
    def test_exact_full_fill_moves_ask_up_one_tick(self):
        book = _book()
        ask_size = book.sell_sizes[3682 - book.ask]
        volume, _, _, bid, ask = apply_order(book, (Side.BUY, 3682, ask_size))
        assert volume == ask_size
        assert (bid, ask) == (book.bid, book.ask) == (3681, 3683)
        assert book.ask - book.bid == 2

    def test_sell_full_fill_moves_bid_down(self):
        book = _book()
        bid_size = book.buy_sizes[book.bid - 3681]
        _, _, _, bid, ask = apply_order(book, (Side.SELL, 3681, bid_size + 1e-9))
        assert (bid, ask) == (book.bid, book.ask) == (3680, 3682)

    def test_full_fill_regenerates_the_far_end(self):
        book = _book()
        ask_size = book.sell_sizes[3682 - book.ask]
        apply_order(book, (Side.BUY, 3682, ask_size))
        assert len(book.sell_sizes) == 10
        assert book.ask + len(book.sell_sizes) - 1 == 3692
        # sized against the post-removal anchors
        assert book.sell_sizes[3692 - book.ask] == \
            size_at(3692, 3681, 3683, 2000.0, 10.0)

    def test_residual_rests_on_the_new_best(self):
        book = _book()
        ask_size = book.sell_sizes[3682 - book.ask]
        next_before = book.sell_sizes[3683 - book.ask]
        agent_size = ask_size + 0.375
        apply_order(book, (Side.BUY, 3682, agent_size))
        assert book.ask == 3683
        # the posted residual is agent size minus the consumed volume
        assert book.sell_sizes[3683 - book.ask] == \
            next_before + (agent_size - ask_size)

    def test_partial_fill_shrinks_the_level_in_place(self):
        book = _book()
        bid_size = book.buy_sizes[book.bid - 3681]
        volume, _, _, bid, ask = apply_order(book, (Side.SELL, 3681, bid_size / 2))
        assert volume == bid_size / 2
        assert (bid, ask) == (book.bid, book.ask) == (3681, 3682)
        assert book.buy_sizes[book.bid - 3681] == bid_size - bid_size / 2

    def test_outcome_captures_pretrade_notionals(self):
        book = _book()
        ask_size = book.sell_sizes[3682 - book.ask]
        volume, obstacle_notional, order_notional, _, _ = \
            apply_order(book, (Side.BUY, 3682, 0.125))
        assert obstacle_notional == ask_size * 3682
        assert order_notional == 0.125 * 3682
        assert volume == 0.125

    def test_deterministic(self):
        results = []
        for _ in range(2):
            book = _book()
            out = apply_order(book, (Side.BUY, 3682, 0.3))
            results.append((out, book.ask, list(book.sell_sizes)))
        assert results[0] == results[1]


class TestRegeneration:
    def test_buy_side_extends_downward(self):
        book = _book()
        bid_size = book.buy_sizes[book.bid - 3681]
        apply_order(book, (Side.SELL, 3681, bid_size))
        assert book.bid - (len(book.buy_sizes) - 1) == 3671
        assert book.buy_sizes[book.bid - 3671] == \
            size_at(3671, 3680, 3682, 2000.0, 10.0)


class TestCheck:
    def test_non_positive_size_is_a_typed_error(self):
        book = _book()
        apply_order(book, (Side.BUY, 3678, -1e6))
        with pytest.raises(DegenerateBookError, match="buy level 3678"):
            book.check()

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("depth", [0, 5, 9])
    @pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
    def test_every_level_is_checked(self, side, depth, size):
        book = _book()
        price = 3681 - depth if side is Side.BUY else 3682 + depth
        (book.buy_sizes if side is Side.BUY else book.sell_sizes)[depth] = size
        with pytest.raises(DegenerateBookError,
                           match=f"^{side.value} level {price} "):
            book.check()

    @pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
    def test_level_count_is_checked(self, side):
        book = _book()
        (book.buy_sizes if side is Side.BUY else book.sell_sizes).pop()
        with pytest.raises(DegenerateBookError,
                           match=f"^{side.value} side holds 9 levels, want 10$"):
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
            apply_order(book, sampler.sample(book))
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
                apply_order(book, sampler.sample(book))
            assert reconcile(book)

    def test_size_changed_without_an_entry_fails(self):
        book = _book()
        book.buy_sizes[2] += 1.0
        assert reconcile(book) is False

    @pytest.mark.parametrize(
        "op", ["init", "passive", "trade", "consume", "regen", "residual"])
    def test_altered_journal_amount_fails(self, op):
        book = _book()
        apply_order(book, (Side.BUY, 3680, 0.4))
        apply_order(book, (Side.SELL, 3681, 0.1))
        apply_order(book, (Side.BUY, 3682, book.sell_sizes[0] + 0.1))
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
        book.journal += [("trade", Side.BUY, p, 2 * s),
                         ("passive", Side.BUY, p, 2 * s)]
        assert reconcile(book) is False

    @pytest.mark.parametrize("op", ["passive", "trade", "residual", "consume"])
    def test_entry_at_no_live_level_fails(self, op):
        book = _book()
        book.journal.append((op, Side.BUY, 5, 1.0))
        assert reconcile(book) is False

    def test_consume_below_the_best_fails(self):
        # consuming depth 3 and regenerating it in place leaves the same
        # sizes, but a full fill only ever takes the best level
        book = _book()
        s, p = book.buy_sizes[3], book.bid - 3
        book.journal += [("consume", Side.BUY, p, s), ("regen", Side.BUY, p, s)]
        assert reconcile(book) is False

    def test_consumes_out_of_price_order_fail(self):
        # two full fills consume the ask and then the next tick; swapped,
        # the regenerated levels and the final sizes still line up
        book = _book()
        for _ in range(2):
            apply_order(book, (Side.BUY, book.ask, book.sell_sizes[0]))
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
        book.journal += [("consume", Side.SELL, p, s), ("regen", Side.SELL, p, s)]
        assert reconcile(book) is False

    @pytest.mark.parametrize("bid,ask", [(3682, 3682), (3690, 3682)])
    def test_crossed_starting_book_fails(self, bid, ask):
        # SimConfig's initial_spread >= 1 rules out such a book; a journal
        # edited to start crossed, with the live book set to match it,
        # must fail
        book = _book()
        book.bid, book.ask = bid, ask
        book.journal = (
            [("init", Side.BUY, bid - i, s) for i, s in enumerate(book.buy_sizes)]
            + [("init", Side.SELL, ask + i, s) for i, s in enumerate(book.sell_sizes)])
        assert reconcile(book) is False

    def test_unknown_tag_fails(self):
        book = _book()
        book.journal.append(("refill", Side.BUY, book.bid, 1.0))
        assert reconcile(book) is False

    def test_journal_tags_cover_every_mutation(self):
        book = _book()
        ask_size = book.sell_sizes[3682 - book.ask]
        apply_order(book, (Side.BUY, 3678, 0.2))
        apply_order(book, (Side.BUY, 3682, ask_size + 0.1))
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
                bid, ask = (bid - 1, ask) if side is Side.BUY else (bid, ask + 1)
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
        apply_order(book, (Side.BUY, 3680, 0.4))
        assert book.journal[-1] == ("passive", Side.BUY, 3680, 0.4)
        assert reconcile(book) is True
