"""Seeded sampling of the per-tick fluid agent."""

from __future__ import annotations

import numpy as np

from .book import BUY, SELL, FluidAgent, OrderBook, Side

GENERATOR_NAME = "numpy PCG64"


class AgentSampler:
    """Draws one agent per tick: equiprobable side, then a price that is
    the opposite best quote with the collision probability or else one
    of the ten own-side levels uniformly, then the book's kernel size at
    that price. All draws come from a single seeded generator, so an
    identical seed against an identical book sequence reproduces the
    identical agent sequence.
    """

    def __init__(self, collision_probability: float, seed: int = 0):
        if not 0.0 <= collision_probability <= 1.0:
            raise ValueError("collision_probability must be in [0, 1]")
        self.collision_probability = collision_probability
        rng = np.random.default_rng(seed)
        self._random = rng.random
        self._integers = rng.integers

    def sample_side(self) -> Side:
        return BUY if self._random() < 0.5 else SELL

    def sample_price(self, book: OrderBook, side: Side) -> int:
        if self._random() < self.collision_probability:
            return book.ask if side is BUY else book.bid
        depth = int(self._integers(0, 10))
        return book.bid - depth if side is BUY else book.ask + depth

    def sample_size(self, price: int, book: OrderBook) -> float:
        # deterministic given the quotes: no extra noise on top of the kernel
        return book.size_at(price)

    def sample(self, book: OrderBook) -> FluidAgent:
        side = self.sample_side()
        price = self.sample_price(book, side)
        return FluidAgent(side, price, self.sample_size(price, book))
