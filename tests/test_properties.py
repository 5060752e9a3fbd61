"""Property tests.

Over a bounded configuration space, every config that builds either
completes, with no NaN in its records or smoothed series, or stops at
the price floor with the package's typed error, which names the tick.

The writers' `numfmt.formatted` gives `fmt % v` for every entry, with
every infinity spelled `inf`, for each format the writers use, on float
and int arrays alike, and so does a whole `series.csv`, cell by cell."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from marketflow.cli import main
from marketflow.config import SimConfig
from marketflow.engine import run
from marketflow.io import _BLOCK, SERIES_COLUMNS, parse_series_header
from marketflow.numfmt import formatted, joined
from marketflow.physics import REGIMES, DegenerateBookError

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


WRITER_FORMATS = ("%.0f,", "%.6f,", "%.2f,", "%.2f ")
# Where `%.Nf` leaves the numpy arithmetic: |v| * 10**N >= 2**52
BOUNDS = [2.0**52 / 10**n for n in (0, 2, 6)]
# Both zeros, both infinities, NaN of either sign, subnormals, the
# extremes, values whose texts meet at six or two decimals, exact binary
# ties at six and two decimals, each bound and its neighbours, values
# whose rounded product |v| * 10**N is off by more than a half, a
# negative that rounds to zero, and values that `%.0f` rounds up or to
# a negative zero; drawn often, so they repeat
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e22, 0.0049999999999999, 0.005,
           -0.005, 1.0000005, 2.5, -2.5, 0.0078125, -0.0078125, 0.125, 0.375,
           *[math.nextafter(bound, to) for bound in BOUNDS
             for to in (0.0, math.inf)], *BOUNDS, -BOUNDS[2],
           180143985094819.8, 18014398509.48198, -1e-9, 2.7, -2.7, -0.5)
FLOATS = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), max_size=80)


def _texts(columns):
    """The text of each entry of `formatted`'s word columns: the non-zero
    bytes of its row of words."""
    assert all(np.ndim(column) <= 1 and np.asarray(column).dtype.kind in "iu"
               for column in columns)
    rows = np.column_stack(np.broadcast_arrays(*columns)).astype(np.uint32)
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def _assert_formatted(values, fmt):
    want = [(fmt % v).replace("-inf", "inf") for v in values.tolist()]
    got = formatted(values, fmt)
    assert _texts(got) == want
    assert joined(got) == "".join(want).encode()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(FLOATS, st.sampled_from(WRITER_FORMATS))
def test_formatted_floats_match_the_scalar_formula(values, fmt):
    _assert_formatted(np.array(values + values[::3], dtype=np.float64), fmt)


# Where an int64 column leaves the integer path for the float one (a
# negative, or 2**52 and above), where the float one leaves its bound
# for `%`, and the ends of int64
INT_EDGES = (0, 1, -1, 9999, 10**4, 2**52 - 1, 2**52, 2**53 + 1, -2**63, 2**63 - 1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3)
                | st.sampled_from(INT_EDGES), max_size=80),
       st.sampled_from(WRITER_FORMATS))
def test_formatted_ints_match_the_scalar_formula(values, fmt):
    _assert_formatted(np.array(values, dtype=np.int64), fmt)
    # series.csv's integer columns: below 2**53, %.0f spells what %d does
    exact = np.array([v for v in values if abs(v) < 2**53], dtype=np.int64)
    assert _texts(formatted(exact, "%.0f,")) == ["%d," % v for v in exact.tolist()]


def test_formatted_keeps_the_sign_of_zero():
    assert _texts(formatted(np.array([0.0, -0.0, 0.0]), "%.6f,")) == [
        "0.000000,", "-0.000000,", "0.000000,"]


@pytest.mark.parametrize("fmt", WRITER_FORMATS)
def test_formatted_special_values_one_at_a_time(fmt):
    # alone, so that each value sets its own row width and sign column
    for value in SPECIAL:
        _assert_formatted(np.array([value]), fmt)


@pytest.mark.parametrize("value,fmt,text", [
    (0.0078125, "%.6f,", "0.007812,"),  # exact ties round half to even
    (0.125, "%.2f ", "0.12 "),
    (0.375, "%.2f ", "0.38 "),
    (-1e-9, "%.6f,", "-0.000000,"),
    (-math.nan, "%.6f,", "nan,"),
    (math.nan, "%.0f,", "nan,"),
    (math.nan, "%.2f ", "nan "),
    (-math.inf, "%.2f,", "inf,"),
])
def test_formatted_spells_the_branches(value, fmt, text):
    assert _texts(formatted(np.array([value]), fmt)) == [text]


def test_joined_sets_the_matrices_side_by_side_and_empties_the_list():
    cells = [*formatted(np.array([1.5, -math.inf, 20.25]), "%.2f,"),
             *formatted(np.array([3, 40, 500]), "%.0f ")]
    assert joined(cells) == b"1.50,3 inf,40 20.25,500 "
    assert cells == []
    # a middle cell that `%` formats: NaN, 1e300, whose text is far wider
    # than the other rows of its column, a negative exact tie in a column
    # otherwise in range, and a signaling NaN, which must not warn
    signaling_nan = np.array([0x7FF0000000000001], np.uint64).view(np.float64)[0]
    for value in (math.nan, 1e300, -0.125, signaling_nan):
        cells = [*formatted(np.array([1.5, value, 20.25]), "%.2f,"),
                 *formatted(np.array([3, 40, 500]), "%.0f ")]
        assert joined(cells) == f"1.50,3 {value:.2f},40 20.25,500 ".encode()


@pytest.mark.parametrize("fmt", ["%s", "%.2e,", "x%d", "%d,"])
def test_formatted_rejects_any_other_format(fmt):
    with pytest.raises(ValueError, match="^format"):
        formatted(np.arange(3.0), fmt)


SERIES_CELLS = (("t", "%d"), ("bid", "%d"), ("ask", "%d"), ("mid", "%.6f"),
                ("ret", "%.6f"), ("v_t", "%.6f"), ("spread", "%d"), ("volume", "%.6f"),
                ("p_hat", "%.6f"), ("mu", "%.6f"), ("smoothed_mu", "%.6f"),
                ("reynolds", "%.6f"), ("smoothed_reynolds", "%.6f"))


def test_series_csv_cells_match_the_scalar_formula(tmp_path):
    # P = 1 at window 1 mixes finite and infinite values; from bid 20000,
    # seed 1 stays above the price floor for 2 * _BLOCK + 1 ticks, and
    # both block seams fall between two infinite rows
    steps = 2 * _BLOCK + 1
    assert main(["simulate", "--seed", "1", "--bid", "20000",
                 "--collision-probability", "1.0", "--window", "1",
                 "--steps", str(steps), "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "series.csv")
    bundle = run(parse_series_header(path))
    series = {**bundle.columns, "smoothed_mu": bundle.smoothed_mu,
              "smoothed_reynolds": bundle.smoothed_reynolds}
    for seam in (_BLOCK, 2 * _BLOCK):
        at_seam = series["smoothed_reynolds"][seam - 1:seam + 1]
        assert len(at_seam) == 2 and np.isinf(at_seam).all(), seam
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    assert rows[0] == SERIES_COLUMNS.split(",")
    assert len(rows) == 1 + steps
    cells = [[(fmt % v).replace("-inf", "inf") for v in series[name].tolist()]
             for name, fmt in SERIES_CELLS]
    regimes = [REGIMES[i].value for i in series["regime"].tolist()]
    for t, row in enumerate(rows[1:]):
        assert row == [column[t] for column in cells] + [regimes[t]], t
