"""Unoptimised references for quantities a run computes another way.

Only tests call these; each states what it is checked against.
"""

import math

import numpy as np

from marketflow.physics import kernel_weight


def size_at(price: float, bid: float, ask: float, m: float, h: float) -> float:
    """Size coordinate at a price: kernel mass from both quote anchors.

    Runs size levels and agents from `OrderBook.weights`, a list of the
    weights by the offset's magnitude; this is the unmemoised reference
    it is checked against.
    """
    return m * (kernel_weight(price - bid, h) + kernel_weight(price - ask, h))


def reynolds_tick(r, v_t, l) -> np.ndarray:
    """Per-tick Reynolds number from the realized collision ratio r,
    elementwise: r * v_T^2 * l / (1 - r).

    0 where v_T = 0 or r = 0, +inf where r = 1 with v_T != 0. Runs record
    `physics.reynolds_closed_form` instead; this is the per-notional
    reference the closed form is checked against.
    """
    r, v_t, l = np.broadcast_arrays(r, v_t, l)
    moving = (v_t != 0.0) & (r != 0.0)
    n_r = np.zeros(r.shape)
    np.divide(r * (v_t * v_t) * l, 1.0 - r, out=n_r, where=moving & (r != 1.0))
    n_r[moving & (r == 1.0)] = math.inf
    return n_r
