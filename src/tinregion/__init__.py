"""Achievable TIN rate regions of the two-user Gaussian SIMO interference
channel: rate formulas, globally optimal proper-signal solvers (pure and
coded time-sharing), an improper-signal gradient-projection heuristic, and
region sweep utilities.

``__all__`` is the public surface, in the groups of the README's "Public
API" section.  Solver internals stay reachable from their modules.
"""

from .channel import (
    SimoChannel,
    TxStrategy,
    channel_from_transform,
    composite_cov_from_strategy,
    strategy_from_composite_cov,
    transform_channel,
    validate_channel,
)
from .errors import ConvergenceError, TinRegionError, ValidationError
from .improper_gp import GpResult, multistart
from .proper_pure import BalanceResult, RateProfile, balance_pure_proper
from .rates import (
    RatePoint,
    enhanced_upper_bound,
    rate_complex,
    rate_composite,
    rate_proper,
    transformed_rates,
)
from .region import RegionCurve, contains, convex_hull_2d, preset_scenario, sweep_region
from .timesharing import DualVariables, TimeSharingSolution, cutting_plane, primal_recovery

__version__ = "0.1.0"

__all__ = [
    # channel
    "SimoChannel",
    "TxStrategy",
    "validate_channel",
    "preset_scenario",
    "transform_channel",
    "channel_from_transform",
    "composite_cov_from_strategy",
    "strategy_from_composite_cov",
    # rates
    "RatePoint",
    "rate_complex",
    "rate_composite",
    "rate_proper",
    "transformed_rates",
    "enhanced_upper_bound",
    # solvers
    "RateProfile",
    "BalanceResult",
    "balance_pure_proper",
    "DualVariables",
    "TimeSharingSolution",
    "cutting_plane",
    "primal_recovery",
    "GpResult",
    "multistart",
    # regions
    "RegionCurve",
    "sweep_region",
    "convex_hull_2d",
    "contains",
    # errors
    "TinRegionError",
    "ValidationError",
    "ConvergenceError",
]
