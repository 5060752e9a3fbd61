"""Seeded sampling of the per-tick fluid agent."""

from __future__ import annotations

import numpy as np

from .book import FluidAgent, OrderBook, Side
from .physics import size_at

GENERATOR_NAME = "numpy PCG64"


class AgentSampler:
    """Draws one agent per tick: equiprobable side, then a price that is
    the opposite best quote with the collision probability or else one
    of the ten own-side levels uniformly, then the kernel size at that
    price. All draws come from a single seeded generator, so an
    identical seed against an identical book sequence reproduces the
    identical agent sequence.
    """

    def __init__(self, collision_probability: float, m: float, h: float, seed: int = 0):
        if not 0.0 <= collision_probability <= 1.0:
            raise ValueError("collision_probability must be in [0, 1]")
        self.collision_probability = collision_probability
        self.m = m
        self.h = h
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def sample_side(self) -> Side:
        return Side.BUY if self.rng.random() < 0.5 else Side.SELL

    def sample_price(self, book: OrderBook, side: Side) -> int:
        if self.rng.random() < self.collision_probability:
            return book.ask if side is Side.BUY else book.bid
        depth = int(self.rng.integers(0, 10))
        return book.bid - depth if side is Side.BUY else book.ask + depth

    def sample_size(self, price: int, book: OrderBook) -> float:
        # deterministic given the quotes: no extra noise on top of the kernel
        return size_at(price, book.bid, book.ask, self.m, self.h)

    def sample(self, book: OrderBook) -> FluidAgent:
        side = self.sample_side()
        price = self.sample_price(book, side)
        return FluidAgent(side=side, price=price, size=self.sample_size(price, book))
