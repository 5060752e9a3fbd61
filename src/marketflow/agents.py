"""Seeded sampling of the per-tick fluid agent.

Every draw comes from PCG64's raw 64-bit stream, fetched from numpy in
blocks, with numpy's scalar `Generator` algorithms replayed on it. The
agents are the ones `np.random.default_rng(seed)` scalar calls give:

- `random()` is `(x >> 11) * 2**-53` on one 64-bit word x, so
  `random() < p` holds exactly when `x < ceil(p * 2**53) << 11`: the
  product by a power of two is exact, and an integer lies below a real
  exactly when it lies below its ceiling. The sampler compares words
  with these thresholds; for p = 0.5 the threshold is 2**63.
- `integers(0, 10)` is Lemire's bounded method (arXiv:1805.10941) on
  one 32-bit draw u. PCG64's 32-bit draw returns the low half of a
  fresh word and keeps the high half for the next 32-bit draw; 64-bit
  draws leave the kept half alone. u is rejected, and the next 32-bit
  draw taken, while `(u * 10) & 0xFFFFFFFF < 6`; the result is
  `(u * 10) >> 32`.

So the agents depend only on the BitGenerator stream, which NEP 19
keeps stable across numpy versions, and not on `Generator`'s
distribution code, which it lets change.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from .book import BUY, SELL, OrderBook, Side
from .config import SimConfig

GENERATOR_NAME = "numpy PCG64"

BLOCK = 128  # raw words per call into numpy: ~50 ticks, a 6.6 KB list


class AgentSampler:
    """Draws one agent per tick: equiprobable side, then a price that is
    the opposite best quote with the config's collision probability or
    else one of the ten own-side levels uniformly, then the book's kernel
    size at that price.

    The draws are numpy's `random()` for the side, `random()` for the
    collision and, without a collision, `integers(0, 10)` for the depth,
    replayed on the raw PCG64 stream of the config's seed (see the module
    docstring). An identical seed against an identical book sequence
    reproduces the identical agent sequence.
    """

    __slots__ = ("_collide_below", "_next_word", "_kept")

    def __init__(self, config: SimConfig):
        self._collide_below = math.ceil(config.collision_probability * 2**53) << 11
        # PCG64(seed)'s 64-bit outputs as Python ints, without end.
        bit_generator = np.random.PCG64(config.seed)
        self._next_word = chain.from_iterable(map(
            np.ndarray.tolist, map(bit_generator.random_raw, repeat(BLOCK)))).__next__
        self._kept = None  # high half of a word, owed to the next 32-bit draw

    def sample(self, book: OrderBook) -> tuple[Side, int, float]:
        """The next agent against `book`, as (side, price, size); the
        size is the kernel mass at the price, `m * (weights[depth] +
        weights[depth + spread])` as `OrderBook` describes."""
        # The literals 2**63 and 0xFFFFFFFF fold to constants.
        next_word = self._next_word
        bid, ask = book.bid, book.ask
        side = BUY if next_word() < 2**63 else SELL
        if next_word() < self._collide_below:
            depth = 0
            price = ask if side is BUY else bid
        else:
            while True:  # Lemire: a draw is rejected with chance 6 / 2**32
                kept = self._kept
                if kept is None:
                    word = next_word()
                    self._kept = word >> 32
                    scaled = (word & 0xFFFFFFFF) * 10
                else:
                    self._kept = None
                    scaled = kept * 10
                if (scaled & 0xFFFFFFFF) >= 6:
                    break
            depth = scaled >> 32
            price = bid - depth if side is BUY else ask + depth
        weights = book.weights
        return side, price, book.m * (weights[depth] + weights[depth + ask - bid])
