"""Unit tests for the agent sampler.

Frequency checks use fixed seeds, so they are deterministic; the 3-sigma
bounds were verified once against those seeds and then frozen.
"""

import math

import numpy as np
import pytest

from marketflow.agents import BLOCK, GENERATOR_NAME, AgentSampler
from marketflow.book import OrderBook, apply_order
from marketflow.config import SimConfig
from reference import size_at


def _sampler(p, seed):
    return AgentSampler(SimConfig(collision_probability=p, seed=seed))


def test_generator_identity_is_recorded():
    assert GENERATOR_NAME == "numpy PCG64"


def test_same_seed_same_agents():
    draws = []
    for _ in range(2):
        sampler = _sampler(0.4, 42)
        draws.append([sampler.sample() for _ in range(100)])
    assert draws[0] == draws[1]


def test_different_seeds_differ():
    a = _sampler(0.4, 1)
    b = _sampler(0.4, 2)
    seq_a = [a.sample() for _ in range(50)]
    seq_b = [b.sample() for _ in range(50)]
    assert seq_a != seq_b


def test_side_frequency_is_balanced():
    sampler = _sampler(0.5, 7)
    n = 10_000
    buys = sum(sampler.sample()[0] for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(buys / n - 0.5) <= 3 * sigma


def test_prices_stay_in_the_sample_space():
    # either side, and a collision or one of the ten own levels
    sampler = _sampler(0.3, 9)
    space = {(buy, depth) for buy in (True, False) for depth in (None, *range(10))}
    for _ in range(2000):
        draw = sampler.sample()
        assert draw in space
        assert type(draw[0]) is bool


@pytest.mark.parametrize("p", [0.15, 0.99])
def test_collision_frequency_tracks_the_probability(p):
    sampler = _sampler(p, 23)
    n = 10_000
    hits = sum(sampler.sample()[1] is None for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_zero_probability_never_collides_and_levels_are_uniform():
    sampler = _sampler(0.0, 31)
    n = 10_000
    counts = {}
    for _ in range(n):
        draw = sampler.sample()
        assert draw[1] is not None
        counts[draw] = counts.get(draw, 0) + 1
    # each (side, level) cell carries probability 1/20
    q = 1 / 20
    sigma = math.sqrt(q * (1 - q) / n)
    assert len(counts) == 20
    for c in counts.values():
        assert abs(c / n - q) <= 3 * sigma


def _priced(book, draw):
    # the price `apply_order` gives a draw on this book
    buy, depth = draw
    if depth is None:
        return book.ask if buy else book.bid
    return book.bid - depth if buy else book.ask + depth


def test_size_is_the_kernel_value_at_the_price():
    sampler = _sampler(0.5, 3)
    for _ in range(200):
        book = OrderBook(SimConfig())
        draw = sampler.sample()
        price = _priced(book, draw)
        size = size_at(price, book.bid, book.ask, 2000.0, 10.0)
        _, _, order_notional, _, _ = apply_order(book, draw)
        assert order_notional == size * price, draw
        assert size > 0


def test_collision_size_pin():
    # at the reference configuration the best-quote size is about 0.7148
    book = OrderBook(SimConfig())
    sampler = _sampler(1.0, 0)
    draw = sampler.sample()
    price = _priced(book, draw)
    assert price in (book.bid, book.ask)
    _, _, order_notional, _, _ = apply_order(book, draw)
    assert abs(order_notional / price - 0.7148) < 5e-5


# Probabilities at the edges of `random() < p`: the smallest subnormal,
# one step of random(), both neighbours of the side test's 0.5, and the
# largest random() value.
THRESHOLD_PS = [5e-324, 2**-53, math.nextafter(0.5, 0), math.nextafter(0.5, 1),
                1 - 2**-53]


@pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.99, 1.0] + THRESHOLD_PS)
def test_agents_match_numpy_scalar_draws(p):
    # numpy's own calls, in the sampler's order: random() for the side,
    # random() for the collision, integers(0, 10) for the depth.
    for seed in (0, 1, 7, 42, 12345, 2**31 + 5, 2**32 - 1, 2**64 + 3):
        sampler = _sampler(p, seed)
        rng = np.random.default_rng(seed)
        for _ in range(3 * BLOCK):  # 2-3 words a tick: six blocks or more
            buy = rng.random() < 0.5
            depth = None if rng.random() < p else int(rng.integers(0, 10))
            assert sampler.sample() == (buy, depth), seed


def test_rejected_draws_take_the_next_32_bits():
    # Random words reach the rejection branch with chance 6 / 2**32, so
    # feed crafted ones. u = 0 and u = 429496730 leave (u * 10) mod 2**32
    # at 0 and 4, both below 6: rejected. u = 858993460 leaves 8 and
    # gives depth 2. Each 32-bit draw is the low half of a fresh word,
    # and its high half is kept for the next one, rejected or not.
    sampler = _sampler(0.0, 0)
    words = iter([
        0, 0,                              # tick 1: buy, no collision
        429496730 << 32 | 0,               # reject low 0, reject kept high
        3006477108 << 32 | 858993460,      # accept low: depth 2; keep high
        2**63, 0,                          # tick 2: sell, no collision
    ])                                     # kept 3006477108: depth 7
    sampler._next_word = words.__next__
    assert sampler.sample() == (True, 2)
    assert sampler.sample() == (False, 7)
    assert next(words, None) is None


@pytest.mark.parametrize("p", THRESHOLD_PS)
def test_collision_threshold_is_exact_at_its_boundary(p):
    # The sampler compares the collision word x with T = ceil(p * 2**53)
    # << 11 instead of computing random() = (x >> 11) * 2**-53; feed the
    # words on both sides of T. The side word 2**63 - 1 is the largest
    # that buys (2**63 sells, see the rejection test).
    threshold = math.ceil(p * 2**53) << 11
    decisions = []
    for x in (threshold - 1, threshold):
        sampler = _sampler(p, 0)
        sampler._next_word = iter([2**63 - 1, x, 858993460]).__next__  # depth 2
        buy, depth = sampler.sample()
        assert buy is True
        assert depth in (None, 2)
        assert (depth is None) == ((x >> 11) * 2**-53 < p), x
        decisions.append(depth is None)
    assert decisions == [True, False]

