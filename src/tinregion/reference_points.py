"""Published reference values for the bundled scenarios.

Used by the ``reproduce`` command to report per-point deviations of this
implementation from the originally published curves.  Each check carries
its own tolerance.  Note that some published values are not reproducible
from the bundled scenario constants (the ``reproduce`` report flags them);
see "Known reference-data issue" in the README for the certificates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReferenceCheck:
    """A single published value with the comparison rule applied to it."""

    scenario: str
    name: str
    kind: str  # the measured candidates it reads: "corner-r1" | "corner-r2"
    #          | "pure-balanced" | "ts-balanced" | "improper-point" | "improper-min-sum"
    expected: tuple[float, ...]
    tol: float

    def deviation(self, candidates) -> float:
        """How far the measured candidate points are from the published value:
        the shortfall of the best candidate's sum rate below ``expected[0]``
        for "improper-min-sum", otherwise the largest coordinate error of the
        nearest candidate.  The check passes at most ``tol``."""
        if self.kind == "improper-min-sum":
            return max(0.0, self.expected[0] - max(sum(p) for p in candidates))
        return min(max(abs(g - e) for g, e in zip(p, self.expected)) for p in candidates)


REFERENCE_CHECKS = [
    ReferenceCheck("fig1", "single-user rate, user 1", "corner-r1",
                   (4.22659234751577,), 1e-3),
    ReferenceCheck("fig1", "single-user rate, user 2", "corner-r2",
                   (4.77534426964198,), 1e-3),
    ReferenceCheck("fig1", "balanced pure point", "pure-balanced",
                   (1.91739291082309, 1.91739291082309), 1e-2),
    ReferenceCheck("fig1", "balanced time-sharing point", "ts-balanced",
                   (3.04664756017678, 3.04664756017678), 2e-2),
    ReferenceCheck("fig1", "improper heuristic best sum", "improper-min-sum",
                   (6.0,), 0.0),
    ReferenceCheck("fig2", "single-user rate, user 1", "corner-r1",
                   (5.94508556879281,), 1e-3),
    ReferenceCheck("fig2", "single-user rate, user 2", "corner-r2",
                   (3.89807518349661,), 1e-3),
    ReferenceCheck("fig2", "balanced pure point", "pure-balanced",
                   (2.87326975409803, 2.87326975409803), 1e-2),
    ReferenceCheck("fig2", "balanced time-sharing point", "ts-balanced",
                   (3.59405774404157, 3.59405774404157), 2e-2),
    ReferenceCheck("fig3", "single-user rate, user 1", "corner-r1",
                   (4.22659234751577,), 1e-3),
    ReferenceCheck("fig3", "single-user rate, user 2", "corner-r2",
                   (4.77534426964198,), 1e-3),
    ReferenceCheck("fig3", "balanced time-sharing point", "ts-balanced",
                   (3.5857517124036, 3.5857517124036), 2e-2),
    ReferenceCheck("fig3", "improper point near one-sided optimum",
                   "improper-point", (4.22659234751564, 3.27626740281447), 0.1),
]
