"""Order book market simulator with fluid-dynamics analogies.

A discrete-time limit order book is driven by one randomly sampled
financial agent per tick. Each interaction yields a viscosity analog
(notional imbalance per unit of traded volume and price motion) and a
Reynolds number analog (squared price speed times spread times collision
odds), from which a laminar / transitional / turbulent regime label is
derived.

The package exports what README's Library section documents; everything
else is imported from its own module (`marketflow.book`, ...).
"""

__version__ = "0.1.0"

from .config import SimConfig
from .engine import SeriesBundle, run
from .physics import DegenerateBookError, FlowRegime, TickRecord

__all__ = [
    "DegenerateBookError",
    "FlowRegime",
    "SeriesBundle",
    "SimConfig",
    "TickRecord",
    "run",
]
