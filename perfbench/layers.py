"""Which library names the traced run wraps, and the per-layer metrics
derived from the spans.

The layers are the library's modules.  Each wrapped name is the one a
caller looks up, so a span's module says who made the call.  Times and
counts are per pass (one run through the workload's input set), which keeps
the exact counts identical however many passes fit in a run.
"""

from __future__ import annotations

import math


def _cut_count(result) -> int:
    _, _, cuts = result
    return len(cuts)


# (module, attribute, span name, value kept from the result)
WRAPS = (
    ("tinregion.region", "sweep_region", "region.sweep_region", None),
    ("tinregion.region", "convex_hull_2d", "region.convex_hull_2d", None),
    ("tinregion.region", "cutting_plane", "timesharing.cutting_plane", _cut_count),
    ("tinregion.region", "primal_recovery", "timesharing.primal_recovery", None),
    ("tinregion.region", "balance_pure_proper", "proper_pure.balance_pure_proper", None),
    ("tinregion.timesharing", "linprog", "timesharing.linprog", None),
    ("tinregion.timesharing", "rate_proper", "rates.rate_proper", None),
    ("tinregion.proper_pure", "gamma_of_R", "proper_pure.gamma_of_R", None),
    ("tinregion.proper_pure", "dominant_eigenpair", "proper_pure.dominant_eigenpair", None),
    ("tinregion.proper_pure", "mmse_filter", "rates.mmse_filter", None),
    ("tinregion.proper_pure", "rate_proper", "rates.rate_proper", None),
    ("tinregion.improper_gp", "multistart", "improper_gp.multistart", None),
    ("tinregion.improper_gp", "gradient_projection", "improper_gp.gradient_projection", None),
    ("tinregion.improper_gp", "project_psd_trace", "improper_gp.project_psd_trace", None),
    ("tinregion.rates", "rate_complex", "rates.rate_complex", None),
    ("tinregion.rates", "rate_composite", "rates.rate_composite", None),
    ("tinregion.rates", "transformed_rates", "rates.transformed_rates", None),
    ("tinregion.rates", "enhanced_upper_bound", "rates.enhanced_upper_bound", None),
    ("tinregion.channel", "transform_channel", "channel.transform_channel", None),
)

# (name, unit, better) of every per-layer metric, in output order.
METRICS = (
    ("timesharing.cutting_plane_s", "s", "lower"),
    ("timesharing.inner_s", "s", "lower"),
    ("timesharing.inner_share", "share", "lower"),
    ("timesharing.cuts", "count", "lower"),
    ("timesharing.inner_s_per_cut", "s", "lower"),
    ("timesharing.master_lp_calls", "count", "lower"),
    ("timesharing.master_lp_s", "s", "lower"),
    ("timesharing.recovery_s", "s", "lower"),
    ("proper_pure.balance_s", "s", "lower"),
    ("proper_pure.gamma_calls", "count", "lower"),
    ("proper_pure.eig_calls", "count", "lower"),
    ("proper_pure.eig_s", "s", "lower"),
    ("proper_pure.eig_s_per_call", "s", "lower"),
    ("rates.mmse_filter_calls", "count", "lower"),
    ("rates.mmse_filter_s", "s", "lower"),
    ("rates.rate_proper_calls", "count", "lower"),
    ("rates.rate_proper_s", "s", "lower"),
    ("rates.rate_complex_s", "s", "lower"),
    ("rates.rate_composite_s", "s", "lower"),
    ("rates.transformed_rates_s", "s", "lower"),
    ("rates.enhanced_bound_s", "s", "lower"),
    ("channel.transform_s", "s", "lower"),
    ("improper_gp.start_s", "s", "lower"),
    ("improper_gp.projections", "count", "lower"),
    ("improper_gp.projections_per_start", "count", "lower"),
    ("improper_gp.projection_s", "s", "lower"),
    ("improper_gp.converged_ratio", "share", "higher"),
    ("region.sweep_s", "s", "lower"),
    ("region.hull_s", "s", "lower"),
    ("trace.ops_per_s", "ops/s", "higher"),
    ("trace.overhead", "share", "lower"),
    ("src_lines", "lines", "lower"),
)


def _ratio(num, den):
    """``num / den``; 0 where the layer did no work, ``None`` if unknown."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(table, passes, busy, starts, converged, ops_per_s,
                  untraced_ops_per_s, src_lines) -> dict:
    """Per-layer metrics of one traced phase of ``passes`` passes that spent
    ``busy`` raw seconds in timed calls, with ``ops_per_s`` corrected like
    the end-to-end metric."""

    def per_pass(value):
        return None if value is None else value / passes

    # The B&B has no wrapped name of its own: it is what remains of
    # cutting_plane once its LP and rate children are taken out.
    children_known = not {"timesharing.linprog", "rates.rate_proper"} & table.missing
    inner = table.self_total("timesharing.cutting_plane") if children_known else None
    cuts = table.last_value_per_op("timesharing.cutting_plane")
    if cuts is not None and any(math.isnan(c) for c in cuts):
        cuts = None
    total_cuts = None if cuts is None else sum(cuts)
    starts_traced = table.count("improper_gp.gradient_projection")
    projections = table.count("improper_gp.project_psd_trace")
    eig_calls = table.count("proper_pure.dominant_eigenpair")
    eig_s = table.total("proper_pure.dominant_eigenpair")
    master = ("timesharing.linprog", "timesharing.cutting_plane")
    return {
        "timesharing.cutting_plane_s": per_pass(table.total("timesharing.cutting_plane")),
        "timesharing.inner_s": per_pass(inner),
        "timesharing.inner_share": _ratio(inner, busy),
        "timesharing.cuts": None if cuts is None else _ratio(total_cuts, len(cuts)),
        "timesharing.inner_s_per_cut": _ratio(inner, total_cuts),
        "timesharing.master_lp_calls": per_pass(table.count(*master)),
        "timesharing.master_lp_s": per_pass(table.total(*master)),
        "timesharing.recovery_s": per_pass(table.total("timesharing.primal_recovery")),
        "proper_pure.balance_s": per_pass(table.total("proper_pure.balance_pure_proper")),
        "proper_pure.gamma_calls": per_pass(table.count("proper_pure.gamma_of_R")),
        "proper_pure.eig_calls": per_pass(eig_calls),
        "proper_pure.eig_s": per_pass(eig_s),
        "proper_pure.eig_s_per_call": _ratio(eig_s, eig_calls),
        "rates.mmse_filter_calls": per_pass(table.count("rates.mmse_filter")),
        "rates.mmse_filter_s": per_pass(table.total("rates.mmse_filter")),
        "rates.rate_proper_calls": per_pass(table.count("rates.rate_proper")),
        "rates.rate_proper_s": per_pass(table.total("rates.rate_proper")),
        # rate_complex is also called inside the other two formulas; count
        # only the benchmark's own calls
        "rates.rate_complex_s": per_pass(table.top_level_total("rates.rate_complex")),
        "rates.rate_composite_s": per_pass(table.total("rates.rate_composite")),
        "rates.transformed_rates_s": per_pass(table.total("rates.transformed_rates")),
        "rates.enhanced_bound_s": per_pass(table.total("rates.enhanced_upper_bound")),
        "channel.transform_s": per_pass(table.total("channel.transform_channel")),
        "improper_gp.start_s": per_pass(
            table.total("improper_gp.gradient_projection", "improper_gp.multistart")
        ),
        "improper_gp.projections": per_pass(projections),
        "improper_gp.projections_per_start": _ratio(projections, starts_traced),
        "improper_gp.projection_s": per_pass(table.total("improper_gp.project_psd_trace")),
        "improper_gp.converged_ratio": _ratio(converged, starts),
        "region.sweep_s": per_pass(table.total("region.sweep_region")),
        "region.hull_s": per_pass(table.total("region.convex_hull_2d")),
        "trace.ops_per_s": ops_per_s,
        "trace.overhead": _ratio(untraced_ops_per_s, ops_per_s) - 1.0,
        "src_lines": src_lines,
    }
