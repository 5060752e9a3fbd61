"""Unit tests for the agent sampler.

Frequency checks use fixed seeds, so they are deterministic; the 3-sigma
bounds were verified once against those seeds and then frozen.
"""

import math

import numpy as np
import pytest

from marketflow.agents import BLOCK, GENERATOR_NAME, AgentSampler
from marketflow.book import Side, init_book
from marketflow.config import SimConfig
from marketflow.physics import size_at


def _static_book():
    return init_book(SimConfig())


def test_generator_identity_is_recorded():
    assert GENERATOR_NAME == "numpy PCG64"


def test_rejects_probability_outside_unit_interval():
    for p in (-0.01, 1.01):
        with pytest.raises(ValueError):
            AgentSampler(p)


def test_same_seed_same_agents():
    book = _static_book()
    draws = []
    for _ in range(2):
        sampler = AgentSampler(0.4, seed=42)
        draws.append([(a.side, a.price, a.size)
                      for a in (sampler.sample(book) for _ in range(100))])
    assert draws[0] == draws[1]


def test_different_seeds_differ():
    book = _static_book()
    a = AgentSampler(0.4, seed=1)
    b = AgentSampler(0.4, seed=2)
    seq_a = [(x.side, x.price) for x in (a.sample(book) for _ in range(50))]
    seq_b = [(x.side, x.price) for x in (b.sample(book) for _ in range(50))]
    assert seq_a != seq_b


def test_side_frequency_is_balanced():
    book = _static_book()
    sampler = AgentSampler(0.5, seed=7)
    n = 10_000
    buys = sum(sampler.sample(book).side is Side.BUY for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(buys / n - 0.5) <= 3 * sigma


def test_prices_stay_in_the_sample_space():
    book = _static_book()
    sampler = AgentSampler(0.3, seed=9)
    for _ in range(2000):
        agent = sampler.sample(book)
        own = set(book.prices(agent.side))
        collision = book.ask if agent.side is Side.BUY else book.bid
        assert agent.price in own | {collision}


@pytest.mark.parametrize("p", [0.15, 0.99])
def test_collision_frequency_tracks_the_probability(p):
    book = _static_book()
    sampler = AgentSampler(p, seed=23)
    n = 10_000
    hits = 0
    for _ in range(n):
        agent = sampler.sample(book)
        collision = book.ask if agent.side is Side.BUY else book.bid
        hits += agent.price == collision
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * sigma


def test_zero_probability_never_collides_and_levels_are_uniform():
    book = _static_book()
    sampler = AgentSampler(0.0, seed=31)
    n = 10_000
    counts = {}
    for _ in range(n):
        agent = sampler.sample(book)
        collision = book.ask if agent.side is Side.BUY else book.bid
        assert agent.price != collision
        counts[(agent.side, agent.price)] = counts.get((agent.side, agent.price), 0) + 1
    # each (side, level) cell carries probability 1/20
    q = 1 / 20
    sigma = math.sqrt(q * (1 - q) / n)
    assert len(counts) == 20
    for c in counts.values():
        assert abs(c / n - q) <= 3 * sigma


def test_size_is_the_kernel_value_at_the_price():
    book = _static_book()
    sampler = AgentSampler(0.5, seed=3)
    for _ in range(200):
        agent = sampler.sample(book)
        assert agent.size == size_at(agent.price, book.bid, book.ask,
                                     2000.0, 10.0)
        assert agent.size > 0


def test_collision_size_pin():
    # at the reference configuration the best-quote size is about 0.7148
    book = _static_book()
    sampler = AgentSampler(1.0, seed=0)
    agent = sampler.sample(book)
    assert agent.price in (book.bid, book.ask)
    assert abs(agent.size - 0.7148) < 5e-5


@pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.99, 1.0])
def test_agents_match_numpy_scalar_draws(p):
    # numpy's own calls, in the sampler's order: random() for the side,
    # random() for the collision, integers(0, 10) for the depth.
    book = _static_book()
    for seed in (0, 1, 7, 42, 12345, 2**31 + 5, 2**32 - 1, 2**64 + 3):
        sampler = AgentSampler(p, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(3 * BLOCK):  # 2-3 words a tick: six blocks or more
            side = Side.BUY if rng.random() < 0.5 else Side.SELL
            if rng.random() < p:
                price = book.ask if side is Side.BUY else book.bid
            else:
                depth = int(rng.integers(0, 10))
                price = book.bid - depth if side is Side.BUY else book.ask + depth
            agent = sampler.sample(book)
            assert (agent.side, agent.price, agent.size) == (
                side, price, book.size_at(price)), seed


def test_rejected_draws_take_the_next_32_bits():
    # Random words reach the rejection branch with chance 6 / 2**32, so
    # feed crafted ones. u = 0 and u = 429496730 leave (u * 10) mod 2**32
    # at 0 and 4, both below 6: rejected. u = 858993460 leaves 8 and
    # gives depth 2. Each 32-bit draw is the low half of a fresh word,
    # and its high half is kept for the next one, rejected or not.
    book = _static_book()
    sampler = AgentSampler(0.0, seed=0)
    words = iter([
        0, 0,                              # tick 1: buy, no collision
        429496730 << 32 | 0,               # reject low 0, reject kept high
        3006477108 << 32 | 858993460,      # accept low: depth 2; keep high
        2**63, 0,                          # tick 2: sell, no collision
    ])                                     # kept 3006477108: depth 7
    sampler._next_word = words.__next__
    first = sampler.sample(book)
    assert (first.side, first.price) == (Side.BUY, book.bid - 2)
    second = sampler.sample(book)
    assert (second.side, second.price) == (Side.SELL, book.ask + 7)
    assert next(words, None) is None
