"""Globally optimal coded time-sharing with proper signals.

The time-sharing problem (average rates and average powers over strategies)
has zero duality gap, so it is solved through its Lagrangian dual: the
outer minimization over multipliers runs a cutting-plane method, and each
inner maximization of the penalized proper sum rate is solved globally:
exactly over user 1's power (roots of a cubic), and by branch-and-bound
over intervals of user 2's power with the mixed-monotonic bound of
Matthiesen, Hellings, Jorswieck and Utschick (IEEE TSP 2020).  A restricted
primal LP over the collected inner maximizers recovers an explicit mixture
of at most four strategies.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import linprog

from .channel import SimoChannel, validate_channel, validate_eps
from .errors import ConvergenceError, ValidationError
from .proper_pure import RateProfile
from .rates import RatePoint, _proper_gains, _reduced_gain, rate_proper

__all__ = [
    "DualVariables",
    "TimeSharingSolution",
    "solve_inner",
    "dual_value",
    "cutting_plane",
    "primal_recovery",
    "Cut",
]

LAMBDA_FLOOR = 1e-9
_LN2 = math.log(2.0)
_MAX_INTERVALS = 1_000_000
_MAX_ITER = 200


@dataclass(frozen=True)
class DualVariables:
    """Multipliers for the rate constraints (mu) and power constraints (lambda)."""

    mu1: float
    mu2: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValidationError("multipliers must be finite")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValidationError("rate multipliers must be nonnegative")
        if self.lam1 < LAMBDA_FLOOR * (1 - 1e-12) or self.lam2 < LAMBDA_FLOOR * (
            1 - 1e-12
        ):
            raise ValidationError("power multipliers must be >= the lambda floor")


@dataclass(frozen=True)
class TimeSharingSolution:
    """Convex combination of proper power strategies and its averaged rates."""

    entries: tuple[tuple[float, float, float], ...]  # (tau, p1, p2)
    rates: RatePoint

    def average_powers(self) -> tuple[float, float]:
        p1 = sum(t * a for t, a, _ in self.entries)
        p2 = sum(t * b for t, _, b in self.entries)
        return p1, p2

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"tau": t, "p1": a, "p2": b} for t, a, b in self.entries
            ],
            "rates": [self.rates.r1, self.rates.r2],
        }


@dataclass(frozen=True)
class Cut:
    """One dual evaluation: multipliers, inner maximizer, rates, and value."""

    dv: DualVariables
    p_star: tuple[float, float]
    rates: RatePoint
    value: float


class _InnerProblem:
    """The mixed-monotonic objective of the inner problem: the weighted
    closed-form proper rate of :mod:`tinregion.rates` minus the power
    penalty.  ``value`` works elementwise on scalars and arrays.
    """

    def __init__(self, ch: SimoChannel, dv: DualVariables):
        self.g, self.x, self.n = _proper_gains(ch)
        self.mu = (dv.mu1, dv.mu2)
        self.lam = (dv.lam1, dv.lam2)
        # maximizer of each user's interference-free objective, zero exactly
        # when lam ln 2 >= mu g; a dead direct link earns nothing
        self.peak = tuple(
            max((mu * g - lam * _LN2) / (lam * _LN2 * g), 0.0) if g > 0 else 0.0
            for mu, lam, g in zip(self.mu, self.lam, self.g)
        )

    def value(self, x1, x2, y1, y2):
        """Objective with signal powers ``x`` and penalized powers ``y``:
        nondecreasing in ``x``, nonincreasing in ``y``, and on the diagonal
        ``x == y`` the weighted proper sum rate minus the power penalty."""
        q1 = _reduced_gain(self.g[0], self.x[0], self.n[0], y2)
        q2 = _reduced_gain(self.g[1], self.x[1], self.n[1], y1)
        return (
            (self.mu[0] * np.log1p(x1 * q1) + self.mu[1] * np.log1p(x2 * q2)) / _LN2
            - self.lam[0] * y1
            - self.lam[1] * y2
        )

    def p1_max(self, a, b, cap1: float):
        """Maximizers and maxima of ``value(p1, b, p1, a)`` over ``p1`` in
        ``[0, cap1]`` for 1-D arrays ``a <= b`` of user 2's power: exact at
        ``p2 = a`` where ``a == b``, else (by monotonicity) an upper bound on
        ``[0, cap1] x [a, b]``.  With ``A = q_1(a)``, ``B = 1 + b g_2``,
        ``C = n_2 + b (g_2 n_2 - x_2)`` and ``N = n_2`` it maximizes
        ``[mu1 ln(1 + A p1) + mu2 ln((B + C p1)/(1 + N p1))]/ln 2 - lam1 p1
        - lam2 a``, whose derivative times its three positive denominators
        is a cubic.  The cubic's roots and both ends are feasible candidates,
        so a spurious root can only lose.
        """
        g, x, N = self.g[1], self.x[1], self.n[1]
        mu1, mu2 = self.mu
        lam = self.lam[0] * _LN2
        A = _reduced_gain(self.g[0], self.x[0], self.n[0], a)
        B = 1.0 + b * g
        C = N + b * max(g * N - x, 0.0)  # g n >= x by Cauchy-Schwarz
        # coefficients of t^0 .. t^3 in the scaled power t = p1 / cap1
        c = cap1 ** np.arange(4) * np.stack([
            mu1 * A * B + mu2 * (C - N * B) - lam * B,
            mu1 * A * (B * N + C) + mu2 * A * (C - N * B)
            - lam * (A * B + C + B * N),
            mu1 * A * C * N - lam * (A * C + A * B * N + C * N),
            -lam * A * C * N,
        ], axis=1)
        # A dead cross link (N = 0), a silenced user 1 (A = 0) or a cubic term
        # negligible on [0, cap1] leaves a quadratic or linear derivative: the
        # stable quadratic formula, whose root c0/q also solves the linear case.
        deg = np.abs(c[:, 3]) <= 1e-12 * np.abs(c[:, :3]).sum(axis=1)
        t = np.tile([0.0, 0.0, 0.0, 0.0, 1.0], (len(c), 1))  # 3 roots, 2 ends
        comp = np.zeros((np.count_nonzero(~deg), 3, 3))
        comp[:, 0] = -c[~deg, 2::-1] / c[~deg, 3:]
        comp[:, 1, 0] = comp[:, 2, 1] = 1.0
        t[~deg, :3] = np.linalg.eigvals(comp).real
        c0, c1, c2 = c[deg, 0], c[deg, 1], c[deg, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
            t[deg, 0] = q / c2
            t[deg, 1] = c0 / q
        # NaN or infinite roots (no real root, no quadratic) land in [0, 1]
        t = np.clip(np.nan_to_num(t, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
        vals = self.value(cap1 * t, b[:, None], cap1 * t, a[:, None])
        best = np.argmax(vals, axis=1)
        rows = np.arange(len(c))
        return cap1 * t[rows, best], vals[rows, best]


def _branch_and_bound(ch: SimoChannel, dv: DualVariables, eps: float):
    """Shared engine: returns ``(p, L, U_cert, resolved)`` where ``U_cert``
    upper-bounds the true inner maximum even if the cap was reached.

    The search box is ``[0, peak_1] x [0, peak_2]``, each user's
    interference-free optimum.  It holds every maximizer: interference only
    lowers a user's own-rate marginal (``q_k(p_j) <= g_k``, and
    ``q / (1 + p q)`` grows with ``q``) and the cross term only lowers the
    objective, so past ``peak_k`` the objective falls in ``p_k`` whatever
    the other power.  The maximum over ``p1`` is exact
    (:meth:`_InnerProblem.p1_max`), so the search runs over intervals of
    ``p2``, held in arrays and all halved each round.  Midpoint values
    sharpen the incumbent, and halves whose bound cannot beat it by more
    than ``eps`` are pruned.  Past ``_MAX_INTERVALS`` kept halves the engine
    stops with ``resolved=False`` and the largest live bound as the
    certificate.
    """
    prob = _InnerProblem(ch, dv)
    cap1, cap2 = prob.peak
    # the bound on [0, cap2], then the exact values at both ends
    p1, vals = prob.p1_max(np.array([0.0, 0.0, cap2]),
                           np.array([cap2, 0.0, cap2]), cap1)
    root_u = float(vals[0])
    i = 1 + int(np.argmax(vals[1:]))
    best_l = float(vals[i])
    best_p = (float(p1[i]), (0.0, cap2)[i - 1])
    lo, hi, upper = np.zeros(1), np.array([cap2]), vals[:1]
    kept = 1
    while True:
        live = (upper > best_l + eps) & (
            # an interval that is numerically a point has only roundoff left
            hi - lo > 1e-14 * (1.0 + hi)
        )
        if not live.any():
            return best_p, best_l, min(root_u, best_l + eps), True
        lo, hi = lo[live], hi[live]
        mid = 0.5 * (lo + hi)
        k = 2 * len(mid)
        # one batch: the bounds on both halves, then the midpoint values
        p1, vals = prob.p1_max(np.concatenate([lo, mid, mid]),
                               np.concatenate([mid, hi, mid]), cap1)
        i = k + int(np.argmax(vals[k:]))
        if vals[i] > best_l:
            best_l = float(vals[i])
            best_p = (float(p1[i]), float(mid[i - k]))
        keep = vals[:k] > best_l + eps
        lo = np.concatenate([lo, mid])[keep]
        hi = np.concatenate([mid, hi])[keep]
        upper = vals[:k][keep]
        kept += len(upper)
        if kept > _MAX_INTERVALS:
            u_cert = max(float(upper.max(initial=best_l)), best_l + eps)
            return best_p, best_l, u_cert, False


def solve_inner(
    ch: SimoChannel, dv: DualVariables, eps: float
) -> tuple[tuple[float, float], float]:
    """Branch-and-bound maximization of the penalized proper sum rate.

    Returns a power vector and a value within ``eps`` of the global
    maximum.  If the kept intervals of ``p2`` exceed the cap, this raises
    with the best bounds found so far.
    """
    validate_eps(eps)
    p, low, u_cert, resolved = _branch_and_bound(ch, dv, eps)
    if not resolved:
        raise ConvergenceError(
            f"interval list exceeded {_MAX_INTERVALS} entries "
            f"(best bounds: U={u_cert:.6g}, L={low:.6g})"
        )
    return p, low


def dual_value(ch: SimoChannel, dv: DualVariables, eps: float) -> float:
    """Dual objective: power-budget term plus the inner maximum."""
    _, val = solve_inner(ch, dv, eps)
    return dv.lam1 * ch.p1 + dv.lam2 * ch.p2 + val


def _lambda_max(ch: SimoChannel, profile: RateProfile) -> float:
    g, _, _ = _proper_gains(ch)
    rho = (profile.rho1, profile.rho2)
    return 10.0 * max(g[k] / rho[k] for k in (0, 1) if rho[k] > 0) / _LN2


def cutting_plane(
    ch: SimoChannel,
    profile: RateProfile,
    eps: float,
    seed_cuts: list[Cut] | None = None,
) -> tuple[float, DualVariables, list[Cut]]:
    """Minimize the dual by Kelley's cutting-plane method.

    Each iteration solves a master LP over the affine cut model on the
    compact multiplier domain, then evaluates the true dual (via the inner
    branch-and-bound) at the LP minimizer to add a new cut.  Stops when the
    gap between the best evaluated dual value and the LP model optimum is
    at most ``eps``.

    ``seed_cuts`` warm-starts the affine model.  The dual function itself
    does not depend on the profile (only the multiplier constraint does),
    so cuts collected at one profile remain valid minorants at any other;
    region sweeps exploit this.  Certified dual values are nevertheless
    recomputed under the current profile's constraint.
    """
    validate_channel(ch)
    validate_eps(eps)
    inner_eps = eps / 10.0
    lam_max = max(_lambda_max(ch, profile), 10 * LAMBDA_FLOOR)
    mu_bounds = []
    for rho in (profile.rho1, profile.rho2):
        mu_bounds.append((0.0, 1.0 / rho) if rho > 0 else (0.0, 0.0))

    def evaluate(dv: DualVariables) -> tuple[Cut, float, bool]:
        # an unresolved solve still gives a valid cut and dual upper bound
        p_star, low, u_cert, resolved = _branch_and_bound(ch, dv, inner_eps)
        rates = rate_proper(ch, *p_star)
        base = dv.lam1 * ch.p1 + dv.lam2 * ch.p2
        cut = Cut(dv=dv, p_star=p_star, rates=rates, value=base + low)
        return cut, base + u_cert, resolved

    if profile.rho1 > 0 and profile.rho2 > 0:
        mu0 = (1.0, 1.0)  # satisfies rho1*mu1 + rho2*mu2 = 1
    elif profile.rho1 > 0:
        mu0 = (1.0 / profile.rho1, 0.0)
    else:
        mu0 = (0.0, 1.0 / profile.rho2)

    cuts: list[Cut] = list(seed_cuts) if seed_cuts else []
    best_upper = math.inf
    best_dv = None
    if not cuts:
        # Seed the model across the multiplier scale so the first master
        # LPs do not chase the lambda floor.
        for scale in (1e-3, 1e-2, 1e-1):
            lam0 = max(LAMBDA_FLOOR, scale * lam_max)
            cut, upper, _ = evaluate(DualVariables(mu0[0], mu0[1], lam0, lam0))
            cuts.append(cut)
            if upper < best_upper:
                best_upper, best_dv = upper, cut.dv

    prev_dv = None
    for _ in range(_MAX_ITER):
        n = len(cuts)
        # variables z = [t, mu1, mu2, lam1, lam2]
        c = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        a_ub = np.zeros((n, 5))
        for i, cut in enumerate(cuts):
            a_ub[i] = [
                -1.0,
                cut.rates.r1,
                cut.rates.r2,
                ch.p1 - cut.p_star[0],
                ch.p2 - cut.p_star[1],
            ]
        b_ub = np.zeros(n)
        a_eq = np.array([[0.0, profile.rho1, profile.rho2, 0.0, 0.0]])
        b_eq = np.array([1.0])
        bounds = [(None, None), mu_bounds[0], mu_bounds[1]] + [
            (LAMBDA_FLOOR, lam_max)
        ] * 2
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            raise ConvergenceError(f"master LP failed: {res.message}")
        t_model = float(res.x[0])
        if best_upper - t_model <= eps:
            return best_upper, best_dv, cuts
        dv = DualVariables(
            mu1=max(res.x[1], 0.0),
            mu2=max(res.x[2], 0.0),
            lam1=min(max(res.x[3], LAMBDA_FLOOR), lam_max),
            lam2=min(max(res.x[4], LAMBDA_FLOOR), lam_max),
        )
        cut, upper, resolved = evaluate(dv)
        cuts.append(cut)
        if upper < best_upper:
            best_upper, best_dv = upper, dv
        if not resolved and prev_dv is not None and np.allclose(
                astuple(dv), astuple(prev_dv), rtol=1e-12, atol=0.0):  # same cut again
            raise ConvergenceError("cutting-plane stalled at an unresolved inner solve")
        prev_dv = dv
    raise ConvergenceError(
        f"cutting-plane method did not reach gap {eps} in {_MAX_ITER} iterations"
    )


def primal_recovery(
    cuts: list[Cut], profile: RateProfile, ch: SimoChannel
) -> TimeSharingSolution:
    """Recover an explicit time-sharing mixture from the collected cuts.

    Solves the restricted primal LP over the inner maximizers: maximize the
    common scaling subject to averaged rate targets and averaged power
    budgets.  The cuts must come from :func:`cutting_plane` on the same
    channel, because their rates are reused.  The LP has five rows, so a
    basic solution uses at most four strategies.
    """
    if not cuts:
        raise ValidationError("no cuts to recover from")
    # Candidate strategies: the inner maximizers plus the power-budget
    # corners (always feasible, and they let degenerate profiles collapse
    # to a single full-power strategy).  Near-identical ones are merged.
    corners = ((ch.p1, 0.0), (0.0, ch.p2), (ch.p1, ch.p2))
    candidates = [(cut.p_star, cut.rates) for cut in cuts]
    candidates += [(p, rate_proper(ch, *p)) for p in corners]
    strategies: list[tuple[float, float]] = []
    rates: list[RatePoint] = []
    for p_star, r in candidates:
        for p in strategies:
            if abs(p[0] - p_star[0]) <= 1e-9 and abs(p[1] - p_star[1]) <= 1e-9:
                break
        else:
            strategies.append(p_star)
            rates.append(r)
    n = len(strategies)
    # variables: [tau_1..tau_n, R]; maximize R
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.zeros((4, n + 1))
    a_ub[0, :n] = [-r.r1 for r in rates]
    a_ub[1, :n] = [-r.r2 for r in rates]
    a_ub[0, -1] = profile.rho1
    a_ub[1, -1] = profile.rho2
    a_ub[2:, :n] = np.transpose(strategies)
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=[0.0, 0.0, ch.p1, ch.p2], A_eq=a_eq, b_eq=[1.0],
        bounds=[(0.0, None)] * (n + 1), method="highs",
    )
    if not res.success:
        raise ConvergenceError(f"primal recovery LP failed: {res.message}")
    keep = [int(i) for i in np.where(res.x[:n] > 1e-9)[0]]
    tau = res.x[keep] / res.x[keep].sum()
    entries = tuple(
        (float(t), float(strategies[i][0]), float(strategies[i][1]))
        for t, i in zip(tau, keep)
    )
    avg_r1 = sum(t * rates[i].r1 for t, i in zip(tau, keep))
    avg_r2 = sum(t * rates[i].r2 for t, i in zip(tau, keep))
    return TimeSharingSolution(entries=entries, rates=RatePoint(avg_r1, avg_r2))
