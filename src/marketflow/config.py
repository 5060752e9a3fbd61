"""`SimConfig`, which checks itself when built, and its `key = value`
text: the parser, the echo, and the one check that a key is a field."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Mapping, get_type_hints

from .physics import kernel_weight


@dataclass(frozen=True)
class SimConfig:
    """Every knob a run needs. Defaults reproduce the narrow-spread,
    high-collision reference experiment. A config is checked when it is
    built (`dataclasses.replace` included), so every instance is valid."""

    initial_bid: int = 3681
    initial_spread: int = 1
    m: float = 2000.0
    h: float = 10.0
    collision_probability: float = 0.99
    steps: int = 450
    seed: int = 0
    smoothing_window: int = 20
    viscosity_clamp: float = 2.0

    def __post_init__(self) -> None:
        # Exactly int: a float would echo a header that does not parse
        # back, and a bool is no count. A float field takes an int or a
        # float and stores a float, which the header echoes as a rerun
        # parses it (an int h gives other weights); + 0.0 makes -0.0 the
        # 0.0 it equals, so both write the same bytes.
        for name, kind in CONFIG_FIELDS.items():
            value = getattr(self, name)
            if kind is int and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if kind is float:
                try:
                    object.__setattr__(self, name, float(value) + 0.0)
                except OverflowError:
                    raise ValueError(f"{name} is too large for a float") from None
        # Ten buy levels from the bid down, all at prices >= 1.
        if self.initial_bid < 10:
            raise ValueError("initial_bid must be >= 10")
        if self.initial_spread < 1:
            raise ValueError("initial_spread must be >= 1")
        if self.initial_spread > 2**16:  # the book keeps a weight per tick of spread
            raise ValueError("initial_spread must be <= 65536")
        if not 0 < self.m < math.inf:
            raise ValueError("m must be finite and > 0")
        if not 0 < self.h < math.inf:
            raise ValueError("h must be finite and > 0")
        # A level sits at most nine ticks from its own anchor, so every
        # kernel size lies between m * W(9; h) and 2 * m * W(0; h). Where
        # h**3 underflows the kernel would divide by zero; its weights are
        # all 0 there anyway.
        far = near = 0.0
        if self.h * self.h * self.h > 0:
            far = self.m * kernel_weight(9, self.h)
            near = 2 * self.m * kernel_weight(0, self.h)
        if not (sys.float_info.min <= far and near < math.inf):
            raise ValueError(
                f"m = {self.m!r}, h = {self.h!r} give level sizes from {far!r} "
                f"(nine ticks out) to {near!r}; both must be finite positive "
                "normal floats")
        if not 0.0 <= self.collision_probability <= 1.0:
            raise ValueError("collision_probability must be in [0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # The bid never rises and the ask rises at most one tick per tick,
        # so bid + ask stays below this sum; under 2**53 every half-tick
        # mid (bid + ask) / 2.0, and with it every v_T, is exact.
        if 2 * self.initial_bid + self.initial_spread + self.steps >= 2**53:
            raise ValueError(
                f"initial_bid = {self.initial_bid}, initial_spread = "
                f"{self.initial_spread}, steps = {self.steps}: 2 * initial_bid "
                "+ initial_spread + steps must stay below 2**53, or mid prices "
                "lose their half ticks")
        # A level grows by at most one agent, itself a kernel size, per
        # tick, and no price exceeds initial_bid + initial_spread + steps
        # + 9, so this bounds every notional, with a factor 2 for the
        # difference of two in the viscosity.
        top = 2 * near * (self.steps + 1) * (
            self.initial_bid + self.initial_spread + self.steps + 9)
        if not top < math.inf:
            raise ValueError(
                f"m = {self.m!r}, h = {self.h!r}, steps = {self.steps}: level "
                "sizes up to (steps + 1) * 2 * m * W(0; h) times the prices "
                "give notionals that can overflow")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        # smoothing_window may exceed steps; the moving average truncates
        # at the series head, so a short run still smooths sensibly.
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")
        if not self.viscosity_clamp > 0:
            raise ValueError("viscosity_clamp must be > 0")


# Field name -> int or float, read from SimConfig's annotations.
CONFIG_FIELDS: dict[str, type] = get_type_hints(SimConfig)


def _kind(key: str) -> type:
    """The type of field `key`; the one check that a key is a field."""
    try:
        return CONFIG_FIELDS[key]
    except KeyError:
        raise ValueError(f"unknown config key: {key}") from None


def with_values(base: SimConfig, values: Mapping) -> SimConfig:
    """`base` with `values` set, once every key is known to be a field."""
    for key in values:
        _kind(key)
    return replace(base, **values)


def parse_config_lines(lines, source="config") -> dict:
    """Read `key = value` pairs as their fields' types; # starts a comment."""
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = (part.strip() for part in line.partition("="))
        kind = _kind(key)
        try:
            values[key] = kind(rhs)
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise ValueError(f"invalid {noun} for {key}: {rhs!r}") from None
    return values


def parse_config(path: str | None = None, overrides: Mapping | None = None) -> SimConfig:
    """Defaults, then file values, then explicit overrides."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a BOM
            values = parse_config_lines(fh, source=path)
    return with_values(SimConfig(), {**values, **(overrides or {})})


def config_echo_lines(config: SimConfig) -> list[str]:
    """Canonical `key = value` lines; repr round-trips every value."""
    return [f"{name} = {getattr(config, name)!r}" for name in CONFIG_FIELDS]
