"""Property tests.

Over a bounded configuration space, every config that builds either
completes, with no NaN in its records or smoothed series, or stops at
the price floor with the package's typed error, which names the tick.

The writers' `io.formatted` gives `fmt % v` for every entry, for each
format the writers use, on float and int arrays alike."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.io import formatted
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
    values += bundle.smoothed_mu.tolist() + bundle.smoothed_reynolds.tolist()
    assert not any(isinstance(v, float) and math.isnan(v) for v in values)


WRITER_FORMATS = ("%d,", "%.6f,", "%.2f,", "%.2f ")
# Both zeros, both infinities, NaN, subnormals, the extremes, and values
# whose texts meet at six or two decimals; drawn often, so they repeat
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e22, 0.0049999999999999, 0.005,
           -0.005, 1.0000005, 2.5, -2.5)
FLOATS = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), max_size=80)


def _assert_formatted(values, fmt):
    try:
        want = [fmt % v for v in values.tolist()]
    except (ValueError, OverflowError):  # %d of NaN or an infinity
        with pytest.raises((ValueError, OverflowError)):
            formatted(values, fmt)
        return
    got = formatted(values, fmt)
    assert got.dtype == object and got.tolist() == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(FLOATS, st.sampled_from(WRITER_FORMATS))
def test_formatted_floats_match_the_scalar_formula(values, fmt):
    _assert_formatted(np.array(values + values[::3], dtype=np.float64), fmt)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), max_size=80),
       st.sampled_from(WRITER_FORMATS))
def test_formatted_ints_match_the_scalar_formula(values, fmt):
    _assert_formatted(np.array(values, dtype=np.int64), fmt)


def test_formatted_keeps_the_sign_of_zero():
    assert formatted(np.array([0.0, -0.0, 0.0]), "%.6f,").tolist() == [
        "0.000000,", "-0.000000,", "0.000000,"]
