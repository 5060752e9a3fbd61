"""Unit tests for the pure formula layer."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from marketflow.book import OrderBook, apply_order
from marketflow.config import SimConfig
from marketflow.physics import (
    REGIMES,
    DegenerateBookError,
    FlowRegime,
    classify_flow,
    collision_ratio,
    kernel_weight,
    reynolds_closed_form,
    viscosity,
)
from reference import reynolds_tick, size_at


def _outcome(obstacle=1000.0, order=500.0, volume=5.0, v_t=1.0,
             spread=1, collision=True):
    """One tick's readout inputs, each a one-element column."""
    return SimpleNamespace(
        volume=np.array([volume]), v_t=np.array([v_t]), spread=np.array([spread]),
        obstacle=np.array([obstacle]), order=np.array([order]),
        collision=np.array([collision]))


# The readout formulas on one tick's columns, each as a Python float.

def _viscosity(out):
    return float(viscosity(out.volume, out.v_t, out.obstacle, out.order)[0])


def _collision_ratio(out):
    return float(collision_ratio(out.order, out.obstacle, out.collision)[0])


def _reynolds_tick(out):
    r = collision_ratio(out.order, out.obstacle, out.collision)
    return float(reynolds_tick(r, out.v_t, out.spread)[0])


def _rel(a, b):
    return abs(a - b) / abs(b)


class TestKernelWeight:
    def test_peak_value_pin(self):
        # closed form at r = 0, h = 10
        expected = 1.0 / (1000.0 * math.pi ** 1.5)
        assert _rel(kernel_weight(0.0, 10.0), expected) <= 1e-12
        assert abs(kernel_weight(0.0, 10.0) - 1.79587e-4) < 1e-9

    def test_one_bandwidth_out_is_e_fold_down(self):
        for h in (0.5, 1.0, 10.0):
            assert kernel_weight(h, h) == pytest.approx(
                kernel_weight(0.0, h) * math.exp(-1.0), rel=1e-14)

    def test_even_in_r(self):
        rng = np.random.default_rng(11)
        for r in rng.uniform(-50, 50, size=200):
            assert kernel_weight(-r, 10.0) == kernel_weight(r, 10.0)

    def test_maximal_at_zero(self):
        peak = kernel_weight(0.0, 10.0)
        for r in (0.1, 1.0, 5.0, 30.0):
            assert kernel_weight(r, 10.0) < peak

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            kernel_weight(1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_weight(1.0, -2.0)

    @pytest.mark.parametrize("h", [2.5, 10.0])
    def test_line_integral_matches_closed_form(self, h):
        # trapezoid rule at step h/100 over [-10h, 10h]; the Gaussian
        # tail beyond that range is far below the tolerance
        step = h / 100.0
        n = 2000
        ys = [kernel_weight(-10.0 * h + i * step, h) for i in range(n + 1)]
        integral = step * (sum(ys) - 0.5 * (ys[0] + ys[-1]))
        assert _rel(integral, 1.0 / (h * h * math.pi)) <= 1e-6


class TestSizeAt:
    def test_reference_pin(self):
        # m = 2000, h = 10, unit spread, at the bid
        size = size_at(3681, 3681, 3682, 2000.0, 10.0)
        assert abs(size - 0.7148) < 5e-5
        expected = 2000.0 * (kernel_weight(0, 10.0) + kernel_weight(1, 10.0))
        assert size == expected

    def test_linear_in_m(self):
        a = size_at(3680, 3681, 3682, 1000.0, 10.0)
        b = size_at(3680, 3681, 3682, 2000.0, 10.0)
        assert b == 2 * a

    def test_symmetric_across_symmetric_anchors(self):
        # equidistant prices around a unit spread get equal sizes
        assert size_at(3681, 3681, 3682, 2000.0, 10.0) == \
            size_at(3682, 3681, 3682, 2000.0, 10.0)

    def test_vanishes_far_away(self):
        assert size_at(3681 - 90, 3681, 3682, 2000.0, 10.0) < 1e-30


class TestViscosity:
    def test_arithmetic(self):
        assert _viscosity(_outcome(obstacle=1000.0, order=500.0,
                                  volume=5.0, v_t=1.0)) == 100.0

    def test_no_trade_is_infinite(self):
        assert _viscosity(_outcome(volume=0.0, v_t=0.0, collision=False)) == math.inf

    def test_zero_price_change_is_infinite(self):
        assert _viscosity(_outcome(volume=5.0, v_t=0.0)) == math.inf

    def test_equal_notionals_without_a_move_are_infinite(self):
        # 0/0: numpy alone would give nan here
        assert _viscosity(_outcome(obstacle=800.0, order=800.0,
                                   volume=2.0, v_t=0.0)) == math.inf

    def test_columns_mix_masked_and_divided_ticks(self):
        mu = viscosity(np.array([0.0, 5.0, 5.0, 2.0]), np.array([0.0, 0.0, 1.0, -0.5]),
                       np.array([1000.0, 1000.0, 1000.0, 800.0]),
                       np.array([500.0, 500.0, 500.0, 800.0]))
        assert mu.tolist() == [math.inf, math.inf, 100.0, 0.0]

    def test_perfect_collision_is_zero(self):
        assert _viscosity(_outcome(obstacle=800.0, order=800.0,
                                  volume=2.0, v_t=0.5)) == 0.0

    def test_reported_as_magnitude(self):
        fat = _viscosity(_outcome(obstacle=500.0, order=1000.0,
                                 volume=5.0, v_t=1.0))
        assert fat == 100.0


class TestCollisionRatio:
    def test_arithmetic(self):
        assert _collision_ratio(_outcome(obstacle=1000.0, order=500.0)) == 0.5

    def test_equal_notionals(self):
        assert _collision_ratio(_outcome(obstacle=640.0, order=640.0)) == 1.0

    def test_passive_is_zero(self):
        assert _collision_ratio(_outcome(collision=False)) == 0.0

    def test_clamped_at_one(self):
        assert _collision_ratio(_outcome(obstacle=100.0, order=250.0)) == 1.0

    def test_price_floor_keeps_obstacle_notionals_positive(self):
        # every level sits at price >= 1, so an obstacle notional is a
        # positive size times a price >= 1; the full fill that would put
        # a buy level at price 0 raises and leaves the book untouched.
        # Each sell collision fills the bid fully: the first on an exact
        # tie, the second on the smaller old depth-1 level.
        book = OrderBook(SimConfig(initial_bid=11))
        _, obstacle_notional, order_notional, _, _ = \
            apply_order(book, (False, None))
        assert book.bid - (len(book.buy_sizes) - 1) == 1
        assert collision_ratio(order_notional, obstacle_notional, True) > 0.0
        state = (book.bid, book.ask, list(book.buy_sizes),
                 list(book.sell_sizes), list(book.journal))
        with pytest.raises(DegenerateBookError,
                           match=r"^price floor: .* bid 10 \(ask 12\) .* price 0$") as caught:
            apply_order(book, (False, None))
        assert (f" with best sizes {book.buy_sizes[0]!r} (buy) and "
                f"{book.sell_sizes[0]!r} (sell) " in str(caught.value))
        assert state == (book.bid, book.ask, list(book.buy_sizes),
                         list(book.sell_sizes), list(book.journal))


class TestReynoldsTick:
    def test_zero_velocity(self):
        assert _reynolds_tick(_outcome(v_t=0.0)) == 0.0

    def test_passive_tick(self):
        assert _reynolds_tick(_outcome(collision=False, v_t=0.0)) == 0.0

    def test_saturated_ratio_is_infinite(self):
        assert _reynolds_tick(_outcome(obstacle=500.0, order=500.0,
                                      v_t=0.5)) == math.inf

    def test_matches_closed_form_on_random_outcomes(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            obstacle = rng.uniform(1.0, 1e4)
            ratio = rng.uniform(1e-6, 0.999999)
            out = _outcome(obstacle=obstacle, order=obstacle * ratio,
                           v_t=rng.uniform(-5, 5) or 0.5,
                           spread=int(rng.integers(1, 21)))
            p_hat = _collision_ratio(out)
            want = reynolds_closed_form(float(out.v_t[0]),
                                        float(out.spread[0]), p_hat)
            assert _rel(_reynolds_tick(out), want) <= 1e-12


class TestReynoldsClosedForm:
    def test_unit_pin(self):
        assert reynolds_closed_form(1.0, 1.0, 0.5) == 1.0

    def test_arithmetic_pin(self):
        # 4 * 5 * 99 up to double round-off
        assert _rel(reynolds_closed_form(2.0, 5.0, 0.99), 1980.0) <= 1e-13

    def test_zero_velocity(self):
        assert reynolds_closed_form(0.0, 7.0, 0.9) == 0.0

    def test_rejects_saturated_probability(self):
        for p in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                reynolds_closed_form(1.0, 1.0, p)

    def test_even_in_velocity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(0.01, 5.0)
            l = rng.uniform(1.0, 20.0)
            p = rng.uniform(0.0, 0.99)
            assert reynolds_closed_form(-v, l, p) == reynolds_closed_form(v, l, p)

    def test_linear_in_l(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.uniform(0.01, 5.0)
            l = rng.uniform(1.0, 20.0)
            c = rng.uniform(0.1, 10.0)
            p = rng.uniform(0.0, 0.99)
            assert reynolds_closed_form(v, c * l, p) == pytest.approx(
                c * reynolds_closed_form(v, l, p), rel=1e-12)

    def test_spread_one_to_twenty_scales_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            v = rng.uniform(-5.0, 5.0)
            p = rng.uniform(0.0, 0.99)
            assert reynolds_closed_form(v, 20.0, p) == \
                20.0 * reynolds_closed_form(v, 1.0, p)

    def test_monotone_in_p(self):
        values = [reynolds_closed_form(1.0, 1.0, p / 100) for p in range(100)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestClassifyFlow:
    @pytest.mark.parametrize("n_r,regime", [
        (0.0, FlowRegime.LAMINAR),
        (1000.0, FlowRegime.LAMINAR),
        (2299.999, FlowRegime.LAMINAR),
        (2300.0, FlowRegime.TRANSITIONAL),
        (2500.0, FlowRegime.TRANSITIONAL),
        (2900.0, FlowRegime.TRANSITIONAL),
        (2900.001, FlowRegime.TURBULENT),
        (3000.0, FlowRegime.TURBULENT),
        (math.inf, FlowRegime.TURBULENT),
    ])
    def test_thresholds(self, n_r, regime):
        assert REGIMES[classify_flow(n_r)] is regime


class TestLimitRelationship:
    def test_viscosity_and_reynolds_are_inverse_in_the_limits(self):
        # saturated collision with equal notionals: mu -> 0, N_R -> inf
        sat = _outcome(obstacle=600.0, order=600.0, volume=3.0, v_t=0.5)
        assert _viscosity(sat) == 0.0
        assert _reynolds_tick(sat) == math.inf
        # no trade: mu -> inf, N_R -> 0
        idle = _outcome(volume=0.0, v_t=0.0, collision=False)
        assert _viscosity(idle) == math.inf
        assert _reynolds_tick(idle) == 0.0
