#!/usr/bin/env python3
"""Walk through the rate formulas on the bundled two-antenna scenario.

Shows that the complex-valued rate expression, its composite-real twin, and
the two-antenna canonical form of the channel all agree, and that the
phase-enhanced channel really bounds the achievable rates from above.
"""

import numpy as np

from tinregion import (
    TxStrategy,
    channel_from_transform,
    composite_cov_from_strategy,
    enhanced_upper_bound,
    preset_scenario,
    rate_complex,
    rate_composite,
    rate_proper,
    transform_channel,
    transformed_rates,
)

ch = preset_scenario("fig1")
print("Scenario fig1, power budgets", ch.p1, ch.p2)

print("\n-- single-user corners --")
print("user 1 alone:", rate_proper(ch, ch.p1, 0.0))
print("user 2 alone:", rate_proper(ch, 0.0, ch.p2))

print("\n-- one improper strategy, three equivalent formulas --")
x = TxStrategy(c1=8.0, c2=6.0, ct1=3.0 * np.exp(0.7j), ct2=4.0 * np.exp(-1.2j))
r_complex = rate_complex(ch, x)
r_composite = rate_composite(
    ch,
    composite_cov_from_strategy(x.c1, x.ct1),
    composite_cov_from_strategy(x.c2, x.ct2),
)
tc = transform_channel(ch)
r_transformed = transformed_rates(tc, x)
print("complex form:    ", r_complex)
print("composite real:  ", r_composite)
print("two-antenna form:", r_transformed)

print("\n-- the enhanced channel bounds every phase choice --")
rng = np.random.default_rng(0)
bound = enhanced_upper_bound(tc, x)
print("upper bound:", bound)
ch2 = channel_from_transform(tc, 0.0, 0.0)  # the transformed channel itself
worst = np.inf
for _ in range(500):
    a1, a2 = rng.uniform(0, 2 * np.pi, 2)
    y = TxStrategy(x.c1, x.c2, abs(x.ct1) * np.exp(1j * a1),
                   abs(x.ct2) * np.exp(1j * a2))
    r = rate_complex(ch2, y)
    worst = min(worst, bound.r1 - r.r1, bound.r2 - r.r2)
print(f"smallest margin over 500 random phase pairs: {worst:.3e} (>= 0)")
