"""Unit tests for the simulation loop and the series treatment."""

import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, fields, replace

import numpy as np
import pytest

from marketflow import engine
from marketflow.agents import AgentSampler
from marketflow.book import OrderBook, Side, apply_order, reconcile
from marketflow.config import SimConfig
from marketflow.engine import run, smooth_series, smooth_viscosity
from marketflow.physics import DegenerateBookError, FlowRegime, TickRecord


class TestSmoothViscosity:
    def test_normalizes_by_the_series_maximum(self):
        assert smooth_viscosity([4.0, 2.0, 8.0], clamp=2.0, window=1).tolist() == \
            [0.5, 0.25, 1.0]

    def test_all_infinite_becomes_all_clamp(self):
        assert smooth_viscosity([math.inf] * 5, clamp=2.0, window=1).tolist() == [2.0] * 5
        assert smooth_viscosity([math.inf] * 5, clamp=2.0, window=3).tolist() == [2.0] * 5

    def test_clamped_entries_stay_at_the_clamp(self):
        # the infinity must not flatten the finite structure
        assert smooth_viscosity([math.inf, 4.0], clamp=2.0, window=1).tolist() == \
            [2.0, 1.0]

    def test_single_finite_value_normalizes_to_one(self):
        assert smooth_viscosity([5.0], clamp=2.0, window=1).tolist() == [1.0]

    def test_all_zero_series_stays_zero(self):
        assert smooth_viscosity([0.0, 0.0], clamp=2.0, window=1).tolist() == [0.0, 0.0]

    def test_empty_series(self):
        assert smooth_viscosity([], clamp=2.0, window=4).tolist() == []

    def test_output_bounded_by_the_clamp(self):
        raw = [math.inf, 3.0, 0.5, math.inf, 12.0, 0.0]
        out = smooth_viscosity(raw, clamp=2.0, window=3)
        assert all(0.0 <= v <= 2.0 for v in out)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            smooth_viscosity([1.0], clamp=2.0, window=0)


class TestSmoothSeries:
    def test_trailing_mean_example(self):
        assert smooth_series([1.0, 2.0, 3.0, 4.0], window=2).tolist() == \
            [1.0, 1.5, 2.5, 3.5]

    def test_window_one_is_identity(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert smooth_series(data, window=1).tolist() == data

    def test_constant_series(self):
        assert smooth_series([0.0] * 6, window=4).tolist() == [0.0] * 6

    def test_head_truncation_beyond_length(self):
        # window larger than the series: every prefix mean
        assert smooth_series([2.0, 4.0], window=10).tolist() == [2.0, 3.0]

    def test_preserves_length(self):
        for n in (0, 1, 5, 50):
            assert len(smooth_series([1.0] * n, window=7)) == n

    def test_stays_in_the_input_hull(self):
        data = [5.0, -1.0, 3.0, 8.0, 0.0]
        out = smooth_series(data, window=3)
        assert all(min(data) <= v <= max(data) for v in out)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            smooth_series([1.0], window=0)


class TestExactOrderSmoothing:
    """The moving average adds each window oldest first from 0.0, the
    order of a plain loop; `sum()` is no reference, since it compensates
    on Python 3.12+."""

    @staticmethod
    def _reference(values, window):
        out = []
        for i in range(len(values)):
            chunk = values[max(0, i - window + 1):i + 1]
            acc = 0.0
            for x in chunk:
                acc += x
            out.append(acc / len(chunk))
        return out

    @staticmethod
    def _values(n):
        rng = random.Random(20)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
                  for _ in range(n)]
        # a few infinities late, so even the widest windows have a long
        # finite stretch before them
        for i in rng.sample(range(4 * n // 5, n), 3):
            values[i] = math.inf
        return values

    @pytest.mark.parametrize("window", [1, 2, 20, 300, 301, 1000, 10**20])
    def test_matches_a_left_to_right_loop(self, window):
        values = self._values(300)
        assert [v.hex() for v in smooth_series(values, window)] == \
            [v.hex() for v in self._reference(values, window)]

    def test_empty_series(self):
        assert smooth_series([], window=5).tolist() == []


class TestRun:
    def test_bundle_shapes(self):
        bundle = run(SimConfig(steps=60, seed=4))
        assert len(bundle.ticks) == 60
        assert len(bundle.smoothed_mu) == 60
        assert len(bundle.smoothed_reynolds) == 60
        assert [t.t for t in bundle.ticks] == list(range(60))

    def test_single_step_run(self):
        bundle = run(SimConfig(steps=1, seed=4))
        assert len(bundle.ticks) == 1
        assert len(bundle.smoothed_mu) == 1

    def test_deterministic(self):
        a = run(SimConfig(steps=120, seed=9))
        b = run(SimConfig(steps=120, seed=9))
        assert a.ticks == b.ticks
        assert a.smoothed_mu.tolist() == b.smoothed_mu.tolist()
        assert a.smoothed_reynolds.tolist() == b.smoothed_reynolds.tolist()

    def test_passive_only_run(self):
        bundle = run(SimConfig(collision_probability=0.0, steps=40, seed=2))
        for tick in bundle.ticks:
            assert tick.volume == 0.0
            assert tick.v_t == 0.0
            assert tick.mu == math.inf
            assert tick.reynolds == 0.0
            assert tick.regime is FlowRegime.LAMINAR
        assert bundle.smoothed_mu.tolist() == [2.0] * 40
        assert bundle.smoothed_reynolds.tolist() == [0.0] * 40

    def test_infinite_viscosity_goes_with_zero_reynolds(self):
        bundle = run(SimConfig(collision_probability=0.5, steps=300, seed=6))
        for tick in bundle.ticks:
            if tick.mu == math.inf:
                assert tick.reynolds == 0.0

    def test_smoothed_viscosity_bounded_by_clamp(self):
        bundle = run(SimConfig(steps=200, seed=8))
        assert all(0.0 <= v <= 2.0 for v in bundle.smoothed_mu)

    def test_ledger_reconciles(self):
        bundle = run(SimConfig(steps=150, seed=14))
        assert reconcile(bundle.final_book) is True

    def test_ledger_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "reconcile", lambda book: False)
        with pytest.raises(RuntimeError, match="reconcile"):
            run(SimConfig(steps=5))

    def test_configured_probability_drives_turbulence(self):
        base = SimConfig(steps=450)
        hot = [run(replace(base, collision_probability=0.99, seed=s))
               for s in range(5)]
        cold = [run(replace(base, collision_probability=0.15, seed=s))
                for s in range(5)]
        mean_hot = sum(b.smoothed_reynolds[-1] for b in hot) / 5
        mean_cold = sum(b.smoothed_reynolds[-1] for b in cold) / 5
        assert mean_hot > mean_cold

    def test_saturated_probability_runs_with_infinite_reynolds(self):
        # the closed form rejects P = 1; the engine takes the limit itself
        bundle = run(SimConfig(collision_probability=1.0, steps=50, seed=2))
        for tick in bundle.ticks:
            assert tick.volume > 0.0
            if tick.v_t != 0.0:
                assert tick.reynolds == math.inf
                assert tick.regime is FlowRegime.TURBULENT
            else:
                assert tick.reynolds == 0.0

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            run(SimConfig(steps=0))
        with pytest.raises(ValueError):
            run(SimConfig(collision_probability=1.5))

    @pytest.mark.parametrize("name,value", [
        ("initial_bid", 3681.5),
        ("initial_spread", 1.0),
        ("steps", 2.5),
        ("seed", 1.5),
        ("smoothing_window", 2.5),
        ("seed", True),
        ("steps", "450"),
    ])
    def test_rejects_a_non_int_in_an_int_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run(SimConfig(**{name: value}))

    @pytest.mark.parametrize("name,value", [
        ("seed", -1),
        *[("h", h) for h in (0.0, -1.0, math.inf, math.nan)],
        ("smoothing_window", 0),
        *[("viscosity_clamp", clamp) for clamp in (0.0, -1.0, math.nan)],
        *[("collision_probability", p) for p in (-0.01, 1.01, math.nan)],
    ])
    def test_rejects_a_value_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}"):
            SimConfig(**{name: value})

    def test_config_is_checked_when_built_and_then_frozen(self):
        with pytest.raises(ValueError, match="^steps must be >= 1"):
            SimConfig(steps=0)
        config = SimConfig()
        with pytest.raises(ValueError, match="^steps must be >= 1"):
            replace(config, steps=0)
        with pytest.raises(FrozenInstanceError):
            config.steps = 0

    @pytest.mark.parametrize("name,value", [
        ("collision_probability", True),
        ("m", "2000"),
        ("h", None),
        ("viscosity_clamp", np.float64(2.0)),
        ("m", np.float64(2000.0)),
    ])
    def test_rejects_a_non_number_in_a_float_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            SimConfig(**{name: value})

    def test_stores_a_float_field_as_a_float(self):
        config = SimConfig(m=2000, h=10, collision_probability=1, viscosity_clamp=2)
        assert config == SimConfig(collision_probability=1.0)
        assert all(type(getattr(config, name)) is float
                   for name in ("m", "h", "collision_probability", "viscosity_clamp"))
        with pytest.raises(ValueError, match="^m is too large for a float"):
            SimConfig(m=10**400)

    def test_degenerate_book_error_names_the_tick(self):
        # a bid of 10 reaches the price floor at tick 0 for seed 0
        with pytest.raises(DegenerateBookError,
                           match=r"^tick 0: price floor: .* bid 10 \(ask 11\)"):
            run(SimConfig(initial_bid=10, steps=10))

    @pytest.mark.parametrize("p, steps, tick", [(1.0, 8193, 7430), (0.99, 20000, 9843)])
    def test_price_floor_late_in_a_long_run_names_its_tick(self, p, steps, tick):
        # the floor is reached thousands of ticks into the loop's table
        with pytest.raises(DegenerateBookError, match=rf"^tick {tick}: price floor"):
            run(SimConfig(collision_probability=p, steps=steps, seed=1))

    def test_bid_below_ten_is_rejected(self):
        with pytest.raises(ValueError, match="initial_bid must be >= 10"):
            SimConfig(initial_bid=9)
        SimConfig(initial_bid=10)

    def test_returns_are_scaled_mid_changes(self):
        bundle = run(SimConfig(steps=80, seed=21))
        for tick in bundle.ticks:
            if tick.v_t == 0.0:
                assert tick.ret == 0.0
            else:
                mid_before = tick.mid - tick.v_t
                assert tick.ret == tick.v_t / mid_before


def _scalar_ticks(config):
    """The run's records from a plain-Python tick loop, the reference for
    the column readout. It reads nothing the readout derives: v_T and l
    come from the live quotes before and after each `apply_order`, and
    the collision flag from the matching rule, an agent priced at the
    pre-trade opposite best."""
    book = OrderBook(config)
    sampler = AgentSampler(config)
    p = config.collision_probability
    ticks = []
    for t in range(config.steps):
        bid, ask = book.bid, book.ask
        side, price, size = sampler.sample(book)
        collided = price == (ask if side is Side.BUY else bid)
        volume, obstacle_notional, order_notional, _, _ = \
            apply_order(book, (side, price, size))
        # the readout's rule: a tick collided exactly when it traded volume
        assert (volume > 0.0) == collided
        mid = (book.bid + book.ask) / 2.0
        v_t = mid - (bid + ask) / 2.0
        spread = ask - bid
        denom = volume * v_t
        mu = (math.inf if denom == 0.0 else
              abs((obstacle_notional - order_notional) / denom))
        p_hat = (min(order_notional / obstacle_notional, 1.0)
                 if collided else 0.0)
        if p >= 1.0:
            nr = 0.0 if v_t == 0.0 else math.inf
        else:
            nr = (v_t * v_t) * (p / (1.0 - p)) * float(spread)
        regime = (FlowRegime.LAMINAR if nr < 2300.0 else
                  FlowRegime.TURBULENT if nr > 2900.0 else
                  FlowRegime.TRANSITIONAL)
        ticks.append(TickRecord(t, book.bid, book.ask, mid, v_t / (mid - v_t), v_t,
                                spread, volume, mu, p_hat, nr, regime))
    return ticks


class TestColumnarReadout:
    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_scalar_formulas_bit_for_bit(self, seed, p):
        config = SimConfig(collision_probability=p, seed=seed)
        want = _scalar_ticks(config)
        got = run(config).ticks
        assert len(got) == len(want) == config.steps
        for a, b in zip(got, want):
            # == on every field, and repr for the type and the sign of zero
            assert astuple(a) == astuple(b)
            assert repr(a) == repr(b)
        # the branches the readout masks: infinite viscosity on passive
        # and partial ticks, the p_hat clamp and, at P = 1, infinite
        # Reynolds numbers
        assert any(r.mu == math.inf for r in got)
        if p >= 0.5:
            assert any(r.p_hat == 1.0 for r in got)
        if p == 1.0:
            assert any(r.reynolds == math.inf for r in got)

    def test_columns_hold_one_array_per_field(self):
        bundle = run(SimConfig(steps=30, seed=5))
        assert list(bundle.columns) == [f.name for f in fields(TickRecord)]
        assert all(len(column) == 30 for column in bundle.columns.values())
        assert bundle.ticks[-1].bid == bundle.final_book.bid


class TestStepIsThePatchPoint:
    def test_run_calls_step_once_per_tick_and_nothing_else_applies(self, monkeypatch):
        # a tracer wraps engine.step; every tick must pass through it, and
        # the record must be made of what it returned
        ticks, outcomes, inside = [], [], []
        real_step, real_apply = engine.step, engine.apply_order

        def counting_step(book, sampler, t):
            inside.append(t)
            try:
                out = real_step(book, sampler, t)
            finally:
                inside.pop()
            ticks.append(t)
            outcomes.append(out)
            return out

        def guarded_apply(*args):
            assert inside, "apply_order called outside engine.step"
            return real_apply(*args)

        monkeypatch.setattr(engine, "step", counting_step)
        monkeypatch.setattr(engine, "apply_order", guarded_apply)
        bundle = run(SimConfig(steps=75, seed=3))
        assert ticks == list(range(75))
        columns = bundle.columns
        assert columns["bid"].tolist() == [out[3] for out in outcomes]
        assert columns["ask"].tolist() == [out[4] for out in outcomes]
        assert columns["volume"].tolist() == [out[0] for out in outcomes]

    @pytest.mark.parametrize("steps", [1, 2, 4097, 8193])
    def test_table_reads_out_like_the_outcome_list(self, monkeypatch, steps):
        # the loop writes the flattened outcomes into one table with a fixed
        # count, which would misalign its rows without an error if a tuple
        # had another length; the columns must equal the readout of the
        # outcome tuples that step returned
        outcomes = []
        real_step = engine.step

        def recording_step(book, sampler, t):
            outcomes.append(real_step(book, sampler, t))
            return outcomes[-1]

        monkeypatch.setattr(engine, "step", recording_step)
        config = SimConfig(collision_probability=0.5, steps=steps, seed=1)
        columns = run(config).columns
        book = OrderBook(config)
        want = engine._readout([np.array(outcomes, dtype=float)], book.bid, book.ask,
                               config.collision_probability)
        assert len(outcomes) == steps
        assert columns["bid"].tolist() == [out[3] for out in outcomes]
        assert columns["ask"].tolist() == [out[4] for out in outcomes]
        for name in ("bid", "ask", "volume", "mu", "p_hat"):
            assert columns[name].dtype == want[name].dtype, name
            assert columns[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("steps", [1, 450, 4097])
def test_a_run_holds_only_its_own_arrays(steps):
    # no kept array is a view, so none keeps the loop's 40 B/tick outcome
    # table alive after the run
    bundle = run(SimConfig(collision_probability=0.5, steps=steps, seed=1))
    for name, values in [*bundle.columns.items(), ("smoothed_mu", bundle.smoothed_mu),
                         ("smoothed_reynolds", bundle.smoothed_reynolds)]:
        assert values.base is None, name


def test_run_peak_memory_per_tick():
    # the loop fills one 40 B/tick float64 table and keeps no outcome tuple
    # past its tick; with the whole run's tuples alive the P = 0.5 run
    # peaked at about 410 B/tick. At P = 0 the readout sets the peak: it
    # read 278 B/tick while the table lived to the end of the readout,
    # 262 with the table freed once mu, p_hat and the volume copy exist.
    # `run` hands the table over in a list that the readout empties, so
    # the bound does not depend on how the interpreter holds arguments.
    steps = 20000
    for p, bound in ((0.5, 360), (0.0, 275)):
        config = SimConfig(collision_probability=p, steps=steps, seed=1,
                           smoothing_window=200)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / steps < bound, (p, peak / steps)


def test_criterion_5_viscosity_is_twice_the_partial_fill_share():
    # Criterion 5's red viscosity clause, measured: a partial fill trades
    # without moving the mid, so its raw viscosity is infinite and smooths
    # as the clamp 2.0, while the full fills' normalised viscosities are
    # near 0. So the mean final smoothed viscosity over criterion 5's runs
    # (0.388) tracks twice the share of partial fills in the final window
    # (2 x 0.18). Passive ticks, the other infinite ones, are 0.5% there.
    mus, shares = [], []
    for seed in range(20):
        bundle = run(SimConfig(collision_probability=0.99, steps=450, seed=seed))
        window = bundle.config.smoothing_window
        volume = bundle.columns["volume"][-window:]
        v_t = bundle.columns["v_t"][-window:]
        shares.append(np.mean((volume > 0.0) & (v_t == 0.0)))
        mus.append(bundle.smoothed_mu[-1])
    assert abs(np.mean(mus) - 2 * np.mean(shares)) <= 0.05, (np.mean(mus), np.mean(shares))
