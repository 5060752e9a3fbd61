"""Property test over a bounded configuration space: every config that
builds either completes, with no NaN in its records or smoothed series,
or stops at the price floor with the package's typed error, which
names the tick."""

import math
import re
from dataclasses import astuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.physics import DegenerateBookError

# Bids near 10, the smallest valid one, reach the price floor within 200
# ticks, h below about 0.35 is rejected for small m, bids near 2**52
# probe the half-tick bound, and m near the float maximum probes the
# notional overflow bound, so the space holds completed, floor-failure
# and rejected cases.
# Field values, not configs: SimConfig rejects a bad one as it is built,
# which would fail the draw itself.
FIELDS = st.fixed_dictionaries(dict(
    initial_bid=st.integers(10, 2**53),
    initial_spread=st.integers(1, 40),
    m=st.floats(1e-3, 1e308),
    h=st.floats(0.2, 200.0),
    collision_probability=st.floats(0.0, 1.0),
    steps=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    smoothing_window=st.integers(1, 300),
    viscosity_clamp=st.floats(1e-3, 10.0),
))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(FIELDS)
def test_valid_config_completes_or_fails_typed(fields):
    try:
        config = SimConfig(**fields)
    except ValueError:
        assume(False)
    try:
        bundle = run(config)
    except DegenerateBookError as exc:
        assert re.match(r"tick \d+: price floor: ", str(exc))
        return
    assert len(bundle.ticks) == config.steps
    assert len(bundle.smoothed_mu) == len(bundle.smoothed_reynolds) == config.steps
    values = [v for tick in bundle.ticks for v in astuple(tick)]
    values += bundle.smoothed_mu + bundle.smoothed_reynolds
    assert not any(isinstance(v, float) and math.isnan(v) for v in values)
