#!/usr/bin/env python3
"""Improper signaling versus proper signaling without time-sharing.

Runs the multi-start gradient-projection heuristic for the weighted sum
rate on the one-sided-interference scenario, and checks the resulting
points against the proper-signal baselines: they can escape the pure
proper region, but never the time-sharing region.
"""

import numpy as np

from tinregion import (
    RateProfile,
    contains,
    cutting_plane,
    multistart,
    preset_scenario,
    strategy_from_composite_cov,
    sweep_region,
)

ch = preset_scenario("fig3")

best, runs = multistart(ch, (1.0, 1.0), n_starts=20, seed=0)
print(f"best weighted-sum point: ({best.rates.r1:.4f}, {best.rates.r2:.4f}), "
      f"sum {best.rates.r1 + best.rates.r2:.4f}")
c1, ct1 = strategy_from_composite_cov(best.m1)
c2, ct2 = strategy_from_composite_cov(best.m2)
print(f"  user 1: variance {c1:.3f}, pseudovariance magnitude {abs(ct1):.3f}")
print(f"  user 2: variance {c2:.3f}, pseudovariance magnitude {abs(ct2):.3f}")

print("\n-- against the time-sharing outer bound --")
pt = best.rates
beta = pt.r1 / (pt.r1 + pt.r2)
R, _, cuts = cutting_plane(ch, RateProfile.from_beta(beta), eps=1e-2)
print(f"time-sharing scaling along the same ray: {R:.4f} "
      f"vs point sum {pt.r1 + pt.r2:.4f} -> inside: {pt.r1 + pt.r2 <= R + 1e-2}")

print("\n-- the whole terminal cloud sits inside the time-sharing region --")
betas = sorted(set(np.linspace(0, 1, 21)) | {beta})
ts = sweep_region(ch, "proper-timesharing", betas, eps=2e-2)
inside = all(contains(ts, r.rates, tol=2e-2) for r in runs)
print(f"all {len(runs)} terminal points contained (tol 2e-2):", inside)
