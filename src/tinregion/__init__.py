"""Achievable TIN rate regions of the two-user Gaussian SIMO interference
channel: rate formulas, globally optimal proper-signal solvers (pure and
coded time-sharing), an improper-signal gradient-projection heuristic, and
region sweep utilities."""

from .channel import (
    SimoChannel,
    TransformedChannel,
    TxStrategy,
    channel_from_transform,
    composite_cov_from_strategy,
    composite_real_embed,
    enhance_channel,
    load_scenario,
    strategy_from_composite_cov,
    transform_channel,
    validate_channel,
)
from .errors import ConvergenceError, TinRegionError, ValidationError
from .improper_gp import (
    GpResult,
    gradient_projection,
    multistart,
    project_psd_trace,
    wsr_gradient,
    wsr_objective,
)
from .proper_pure import (
    BalanceResult,
    RateProfile,
    balance_pure_proper,
    dominant_eigenpair,
    gamma_of_R,
)
from .rates import (
    RatePoint,
    enhanced_upper_bound,
    mmse_filter,
    rate_complex,
    rate_composite,
    rate_proper,
    sinr,
    transformed_rates,
)
from .region import (
    PRESETS,
    RegionCurve,
    contains,
    convex_hull_2d,
    preset_scenario,
    sweep_region,
)
from .timesharing import (
    Cut,
    DualVariables,
    TimeSharingSolution,
    cutting_plane,
    dual_value,
    primal_recovery,
    solve_inner,
)

__version__ = "0.1.0"

__all__ = [
    "SimoChannel",
    "TxStrategy",
    "TransformedChannel",
    "RatePoint",
    "RateProfile",
    "BalanceResult",
    "DualVariables",
    "Cut",
    "TimeSharingSolution",
    "GpResult",
    "RegionCurve",
    "TinRegionError",
    "ValidationError",
    "ConvergenceError",
    "validate_channel",
    "composite_real_embed",
    "composite_cov_from_strategy",
    "strategy_from_composite_cov",
    "transform_channel",
    "enhance_channel",
    "channel_from_transform",
    "load_scenario",
    "rate_complex",
    "rate_composite",
    "rate_proper",
    "sinr",
    "mmse_filter",
    "transformed_rates",
    "enhanced_upper_bound",
    "dominant_eigenpair",
    "gamma_of_R",
    "balance_pure_proper",
    "solve_inner",
    "dual_value",
    "cutting_plane",
    "primal_recovery",
    "wsr_objective",
    "wsr_gradient",
    "project_psd_trace",
    "gradient_projection",
    "multistart",
    "sweep_region",
    "convex_hull_2d",
    "contains",
    "preset_scenario",
    "PRESETS",
    "__version__",
]
