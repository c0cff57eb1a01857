#!/usr/bin/env python3
"""Coded time-sharing via Lagrangian duality.

Solves the symmetric-profile time-sharing problem on the bundled scenario,
prints the dual certificate and the recovered mixture of at most four
strategies, and shows the averaged powers meeting the budgets.
"""

from tinregion import RateProfile, cutting_plane, preset_scenario, primal_recovery
from tinregion.proper_pure import balance_pure_proper

ch = preset_scenario("fig2")
profile = RateProfile(0.5, 0.5)

pure = balance_pure_proper(ch, profile, eps=1e-7)
print(f"pure-strategy balanced point: ({pure.rates.r1:.4f}, {pure.rates.r2:.4f})")

R, dv, cuts = cutting_plane(ch, profile, eps=1e-2)
print(f"\ndual certificate R* = {R:.4f} "
      f"(multipliers mu=({dv.mu1:.3f},{dv.mu2:.3f}), "
      f"lam per unit of budget=({dv.lam1:.4f},{dv.lam2:.4f}), {len(cuts)} cuts)")

sol = primal_recovery(cuts, profile, ch)
print(f"recovered averaged rates: ({sol.rates.r1:.4f}, {sol.rates.r2:.4f})")
print("mixture:")
for tau, p1, p2 in sol.entries:
    print(f"  tau={tau:.4f}  powers=({p1:7.3f}, {p2:7.3f})")
p1, p2 = sol.average_powers()
print(f"averaged powers: ({p1:.4f}, {p2:.4f}) within budgets ({ch.p1}, {ch.p2})")
print("\nNote how per-slot powers may exceed the budget; only the average "
      "is constrained, which is exactly what pure strategies cannot do.")
