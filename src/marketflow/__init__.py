"""Order book market simulator with fluid-dynamics analogies.

A discrete-time limit order book is driven by one randomly sampled
financial agent per tick. Each interaction yields a viscosity analog
(notional imbalance per unit of traded volume and price motion) and a
Reynolds number analog (squared price speed times spread times collision
odds), from which a laminar / transitional / turbulent regime label is
derived.
"""

__version__ = "0.1.0"

from .config import SimConfig
from .physics import (
    DegenerateBookError,
    FlowRegime,
    TickRecord,
    classify_flow,
    collision_ratio,
    fluid_density,
    kernel_weight,
    obstacle_density,
    reynolds_closed_form,
    reynolds_tick,
    size_at,
    viscosity,
)
from .book import (
    FluidAgent,
    InteractionOutcome,
    OrderBook,
    PriceLevel,
    ReconcileReport,
    Side,
    apply_order,
    init_book,
    reconcile,
)
from .agents import AgentSampler
from .engine import SeriesBundle, run, smooth_series, smooth_viscosity, step
from .sweep import (
    RunSummary,
    SurfaceGrid,
    batch_runs,
    default_l_grid,
    default_probability_grid,
    default_speed_grid,
    surface_speed,
    surface_spread,
)

__all__ = [
    "AgentSampler",
    "DegenerateBookError",
    "FlowRegime",
    "FluidAgent",
    "InteractionOutcome",
    "OrderBook",
    "PriceLevel",
    "ReconcileReport",
    "RunSummary",
    "SeriesBundle",
    "Side",
    "SimConfig",
    "SurfaceGrid",
    "TickRecord",
    "apply_order",
    "batch_runs",
    "classify_flow",
    "collision_ratio",
    "default_l_grid",
    "default_probability_grid",
    "default_speed_grid",
    "fluid_density",
    "init_book",
    "kernel_weight",
    "obstacle_density",
    "reconcile",
    "reynolds_closed_form",
    "reynolds_tick",
    "run",
    "size_at",
    "smooth_series",
    "smooth_viscosity",
    "step",
    "surface_speed",
    "surface_spread",
    "viscosity",
]
