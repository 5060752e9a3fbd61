"""Unit tests for the agent sampler.

Frequency checks use fixed seeds, so they are deterministic; the 3-sigma
bounds were verified once against those seeds and then frozen.
"""

import math

import numpy as np
import pytest

from marketflow.agents import BLOCK, GENERATOR_NAME, AgentSampler
from marketflow.book import OrderBook, Side
from marketflow.config import SimConfig
from reference import size_at


def _static_book():
    return OrderBook(SimConfig())


def _sampler(p, seed):
    return AgentSampler(SimConfig(collision_probability=p, seed=seed))


def test_generator_identity_is_recorded():
    assert GENERATOR_NAME == "numpy PCG64"


def test_same_seed_same_agents():
    book = _static_book()
    draws = []
    for _ in range(2):
        sampler = _sampler(0.4, 42)
        draws.append([sampler.sample(book) for _ in range(100)])
    assert draws[0] == draws[1]


def test_different_seeds_differ():
    book = _static_book()
    a = _sampler(0.4, 1)
    b = _sampler(0.4, 2)
    seq_a = [a.sample(book)[:2] for _ in range(50)]
    seq_b = [b.sample(book)[:2] for _ in range(50)]
    assert seq_a != seq_b


def test_side_frequency_is_balanced():
    book = _static_book()
    sampler = _sampler(0.5, 7)
    n = 10_000
    buys = sum(sampler.sample(book)[0] is Side.BUY for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(buys / n - 0.5) <= 3 * sigma


def test_prices_stay_in_the_sample_space():
    book = _static_book()
    sampler = _sampler(0.3, 9)
    for _ in range(2000):
        side, price, _ = sampler.sample(book)
        if side is Side.BUY:
            own = {book.bid - i for i in range(len(book.buy_sizes))}
        else:
            own = {book.ask + i for i in range(len(book.sell_sizes))}
        collision = book.ask if side is Side.BUY else book.bid
        assert price in own | {collision}


@pytest.mark.parametrize("p", [0.15, 0.99])
def test_collision_frequency_tracks_the_probability(p):
    book = _static_book()
    sampler = _sampler(p, 23)
    n = 10_000
    hits = 0
    for _ in range(n):
        side, price, _ = sampler.sample(book)
        collision = book.ask if side is Side.BUY else book.bid
        hits += price == collision
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_zero_probability_never_collides_and_levels_are_uniform():
    book = _static_book()
    sampler = _sampler(0.0, 31)
    n = 10_000
    counts = {}
    for _ in range(n):
        side, price, _ = sampler.sample(book)
        collision = book.ask if side is Side.BUY else book.bid
        assert price != collision
        counts[(side, price)] = counts.get((side, price), 0) + 1
    # each (side, level) cell carries probability 1/20
    q = 1 / 20
    sigma = math.sqrt(q * (1 - q) / n)
    assert len(counts) == 20
    for c in counts.values():
        assert abs(c / n - q) <= 3 * sigma


def test_size_is_the_kernel_value_at_the_price():
    book = _static_book()
    sampler = _sampler(0.5, 3)
    for _ in range(200):
        _, price, size = sampler.sample(book)
        assert size == size_at(price, book.bid, book.ask, 2000.0, 10.0)
        assert size > 0


def test_collision_size_pin():
    # at the reference configuration the best-quote size is about 0.7148
    book = _static_book()
    sampler = _sampler(1.0, 0)
    _, price, size = sampler.sample(book)
    assert price in (book.bid, book.ask)
    assert abs(size - 0.7148) < 5e-5


# Probabilities at the edges of `random() < p`: the smallest subnormal,
# one step of random(), both neighbours of the side test's 0.5, and the
# largest random() value.
THRESHOLD_PS = [5e-324, 2**-53, math.nextafter(0.5, 0), math.nextafter(0.5, 1),
                1 - 2**-53]


@pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.99, 1.0] + THRESHOLD_PS)
def test_agents_match_numpy_scalar_draws(p):
    # numpy's own calls, in the sampler's order: random() for the side,
    # random() for the collision, integers(0, 10) for the depth.
    book = _static_book()
    for seed in (0, 1, 7, 42, 12345, 2**31 + 5, 2**32 - 1, 2**64 + 3):
        sampler = _sampler(p, seed)
        rng = np.random.default_rng(seed)
        for _ in range(3 * BLOCK):  # 2-3 words a tick: six blocks or more
            side = Side.BUY if rng.random() < 0.5 else Side.SELL
            if rng.random() < p:
                price = book.ask if side is Side.BUY else book.bid
            else:
                depth = int(rng.integers(0, 10))
                price = book.bid - depth if side is Side.BUY else book.ask + depth
            size = size_at(price, book.bid, book.ask, book.m, book.h)
            assert sampler.sample(book) == (side, price, size), seed


def test_rejected_draws_take_the_next_32_bits():
    # Random words reach the rejection branch with chance 6 / 2**32, so
    # feed crafted ones. u = 0 and u = 429496730 leave (u * 10) mod 2**32
    # at 0 and 4, both below 6: rejected. u = 858993460 leaves 8 and
    # gives depth 2. Each 32-bit draw is the low half of a fresh word,
    # and its high half is kept for the next one, rejected or not.
    book = _static_book()
    sampler = _sampler(0.0, 0)
    words = iter([
        0, 0,                              # tick 1: buy, no collision
        429496730 << 32 | 0,               # reject low 0, reject kept high
        3006477108 << 32 | 858993460,      # accept low: depth 2; keep high
        2**63, 0,                          # tick 2: sell, no collision
    ])                                     # kept 3006477108: depth 7
    sampler._next_word = words.__next__
    assert sampler.sample(book)[:2] == (Side.BUY, book.bid - 2)
    assert sampler.sample(book)[:2] == (Side.SELL, book.ask + 7)
    assert next(words, None) is None


@pytest.mark.parametrize("p", THRESHOLD_PS)
def test_collision_threshold_is_exact_at_its_boundary(p):
    # The sampler compares the collision word x with T = ceil(p * 2**53)
    # << 11 instead of computing random() = (x >> 11) * 2**-53; feed the
    # words on both sides of T. The side word 2**63 - 1 is the largest
    # that buys (2**63 sells, see the rejection test), and a buy
    # without a collision rests on its own side, below the ask.
    book = _static_book()
    threshold = math.ceil(p * 2**53) << 11
    decisions = []
    for x in (threshold - 1, threshold):
        sampler = _sampler(p, 0)
        sampler._next_word = iter([2**63 - 1, x, 858993460]).__next__  # depth 2
        side, price, _ = sampler.sample(book)
        assert side is Side.BUY
        assert (price == book.ask) == ((x >> 11) * 2**-53 < p), x
        decisions.append(price == book.ask)
    assert decisions == [True, False]

