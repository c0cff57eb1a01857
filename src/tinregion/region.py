"""Rate-region orchestration: per-method profile sweeps, the 2-D Pareto
convex hull, point containment, and the bundled example scenarios."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .channel import SimoChannel, int_scalar, load_scenario, real_scalar, validate_channel
from .errors import ValidationError
from .improper_gp import multistart
from .proper_pure import RateProfile, balance_pure_proper
from .rates import RatePoint
# primal_recovery: called by nothing here; perfbench/layers.py wraps it (ROADMAP item 0).
from .timesharing import cutting_plane, primal_recovery  # noqa: F401

METHODS = (
    "proper-pure",
    "proper-timesharing",
    "improper-heuristic",
    "convex-hull",
)


@dataclass(frozen=True)
class RegionCurve:
    method: str
    samples: tuple[tuple[float, RatePoint], ...]  # (beta, point), sorted by beta

    def points(self) -> list[RatePoint]:
        return [p for _, p in self.samples]


# Bundled two-antenna scenarios (all with p1 = p2 = 10): "fig1" and "fig2"
# are fixed realizations; "fig3" is "fig1" with the link into receiver 1
# zeroed (one-sided interference).
PRESETS = {
    "fig1": {
        "h11": [[-0.0878, 0.3457], [1.0534, 0.7316]],
        "h12": [[0.9963, 0.5140], [1.0021, -0.2146]],
        "h21": [[0.9496, 0.4156], [-1.7076, -1.1134]],
        "h22": [[0.5072, 0.6282], [1.1528, -0.8111]],
        "p1": 10.0,
        "p2": 10.0,
    },
    "fig2": {
        "h11": [[0.9578, 2.0563], [-0.7581, 0.5835]],
        "h12": [[0.6795, 0.9751], [0.0877, -0.7482]],
        "h21": [[1.0159, -0.3314], [-1.3866, -0.1927]],
        "h22": [[-0.1398, 0.7767], [-0.8541, -0.1965]],
        "p1": 10.0,
        "p2": 10.0,
    },
}
PRESETS["fig3"] = dict(PRESETS["fig1"], h12=[[0.0, 0.0], [0.0, 0.0]])


def preset_scenario(name: str) -> SimoChannel:
    """One of the bundled scenarios: fig1, fig2, or fig3."""
    try:
        raw = PRESETS[name]
    except (KeyError, TypeError):  # an unknown or unhashable name
        raise ValidationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return load_scenario(raw)


def _solve_beta(ch, method, beta, eps, seed, n_starts):
    if method == "proper-pure":
        return balance_pure_proper(ch, RateProfile.from_beta(beta), eps=eps).rates
    # improper-heuristic; mix the seed per beta so starts differ along the sweep
    best, results = multistart(
        ch, (beta, 1.0 - beta), n_starts=n_starts,
        seed=seed + int(round(beta * 10_000)),
    )
    if beta in (0.0, 1.0):
        # W ignores the zero-weight user; break exact ties toward its rate.
        other = 1 if beta == 1.0 else 0
        tied = (r for r in results if r.W == best.W)
        best = max(tied, key=lambda r: r.rates[other])
    return best.rates


def sweep_region(
    ch: SimoChannel,
    method: str,
    betas,
    eps: float | None = None,
    seed: int = 0,
    n_starts: int = 20,
) -> RegionCurve:
    """One solver call per profile weight; results are keyed by beta so the
    outcome does not depend on evaluation order.

    For ``convex-hull`` the proper-pure curve is swept first and hulled.
    Solver failures propagate immediately rather than dropping samples.
    The default ``eps`` is 1e-6 for pure balancing and 1e-2 for the
    time-sharing solver.
    """
    validate_channel(ch)
    int_scalar("seed", seed)
    if eps is None:
        eps = 1e-2 if method == "proper-timesharing" else 1e-6
    try:
        betas = sorted(real_scalar("betas", b) for b in betas)
    except TypeError:
        raise ValidationError(f"betas must be a sequence of numbers, got {betas!r}") from None
    if not betas:
        raise ValidationError("empty beta grid")
    if not all(0 <= b <= 1 for b in betas):
        raise ValidationError("betas must lie in [0, 1]")
    if method == "convex-hull":
        pure = sweep_region(
            ch, "proper-pure", betas, eps=eps, seed=seed, n_starts=n_starts
        )
        return convex_hull_2d(pure.points())
    if method not in METHODS:
        raise ValidationError(f"unknown sweep method {method!r}")

    if method == "proper-timesharing":
        # Sequential sweep sharing one cut pool: the dual cuts are valid at
        # every profile, so later betas converge in a few iterations.
        samples = []
        pool = None
        for b in betas:
            res = cutting_plane(ch, RateProfile.from_beta(b), eps=eps, seed_cuts=pool)
            pool = res.cuts
            samples.append((b, res.solution.rates))
        return RegionCurve(method=method, samples=tuple(samples))

    samples = tuple((b, _solve_beta(ch, method, b, eps, seed, n_starts)) for b in betas)
    return RegionCurve(method=method, samples=samples)


def _rate_pair(p) -> tuple[float, float]:
    try:
        x, y = p
    except (TypeError, ValueError):
        raise ValidationError(f"a rate point must be a pair, got {p!r}") from None
    x, y = real_scalar("rate", x), real_scalar("rate", y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"non-finite rate pair ({x}, {y})")
    return x, y


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points) -> RegionCurve:
    """Upper-right Pareto hull of a set of rate points.

    The single-user axis points ``(r1_max, 0)`` and ``(0, r2_max)`` are
    always appended first (switching between the extremes in time is always
    available), so the hull runs from the r2 axis to the r1 axis.  Collinear
    interior points are dropped.
    """
    pts = [_rate_pair(p) for p in points]
    if not pts:
        raise ValidationError("need at least one point to hull")
    r1_max = max(p[0] for p in pts)
    r2_max = max(p[1] for p in pts)
    pts.extend([(r1_max, 0.0), (0.0, r2_max)])
    pts = sorted(set(pts), key=lambda p: (p[0], -p[1]))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    chain = hull  # runs from (0, r2_max) down to (r1_max, 0)
    n = len(chain)
    samples = tuple(
        (i / (n - 1) if n > 1 else 0.0, RatePoint(p[0], p[1]))
        for i, p in enumerate(chain)
    )
    return RegionCurve(method="convex-hull", samples=samples)


def contains(region: RegionCurve, pt, tol: float = 0.0) -> bool:
    """Whether a rate pair lies in the downward closure of the curve.

    The region is the union of everything dominated by a sample or by the
    piecewise-linear interpolation between consecutive samples (sorted by
    the first rate, then falling in the second, as a Pareto curve runs),
    with free rate reduction toward the axes.
    """
    if not isinstance(region, RegionCurve):
        raise ValidationError(f"region must be a RegionCurve, got {region!r}")
    if not region.samples:
        raise ValidationError("empty region")
    x, y = _rate_pair(pt)
    if not math.isfinite(real_scalar("tol", tol)):
        raise ValidationError(f"tol must be a finite number, got {tol!r}")
    if x < 0 or y < 0:
        return False
    pts = sorted(((p.r1, p.r2) for p in region.points()),
                 key=lambda p: (p[0], -p[1]))
    xq = x - tol
    best = -math.inf
    for px, py in pts:
        if px >= xq:
            best = max(best, py)
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        if bx <= xq or ax == bx:
            continue
        t = (max(xq, ax) - ax) / (bx - ax)
        best = max(best, ay + t * (by - ay))
    return y <= best + tol


CSV_HEADER = "method,beta,r1,r2"


def curve_to_csv_rows(curve: RegionCurve) -> list[str]:
    rows = [CSV_HEADER]
    for beta, p in curve.samples:
        rows.append(f"{curve.method},{beta:.12g},{p.r1:.12g},{p.r2:.12g}")
    return rows


def curve_to_dict(curve: RegionCurve) -> dict:
    return {
        "method": curve.method,
        "samples": [
            {"beta": beta, "r1": p.r1, "r2": p.r2} for beta, p in curve.samples
        ],
    }


def write_curve(path, *curves: RegionCurve, fmt: str = "csv") -> None:
    """Write one or more curves: CSV rows under one header, or JSON (one
    curve's object, or a list of them)."""
    if fmt == "csv":
        rows = [row for c in curves for row in curve_to_csv_rows(c)[1:]]
        text = "\n".join([CSV_HEADER, *rows]) + "\n"
    elif fmt == "json":
        dicts = [curve_to_dict(c) for c in curves]
        text = json.dumps(dicts[0] if len(dicts) == 1 else dicts, indent=2) + "\n"
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
