"""Globally optimal coded time-sharing with proper signals.

The time-sharing problem (average rates and average powers over strategies)
has zero duality gap, so it is solved through its Lagrangian dual: the
outer minimization over multipliers runs a cutting-plane method, and each
inner maximization of the penalized proper sum rate is solved exactly.  The
cutting plane's master LP has at most three free multipliers in a box; a
NumPy dual simplex, warm-started from the previous master, solves it; the
convex weights of its active cuts give a certified lower bound on the cut
model.  Besides the exact cuts, every master holds the cuts of fixed power
pairs, one rate evaluation each: full power, and powers one or more decades
past a budget, whose cuts fall in that user's power multiplier and so keep
Kelley's method (Kelley, J. SIAM 1960) off the lambda floor.  The candidate
powers of user 2 are both ends of its range and the real roots of the
hidden-variable resultant of the two stationarity polynomials (Nakatsukasa,
Noferini and Townsend, Numer. Math. 2015), found from piecewise Chebyshev
interpolants and colleague matrices (Boyd, SIAM Review 2013); user 1's best
power for each is a root of a cubic.  The explicit mixture is the primal
side of the same LP (Dantzig and Wolfe, Oper. Res. 1960): the convex weights
of one more master, over the fixed pairs, the inner maximizers and the
single-user corners, mix at most four strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SimoChannel, real_scalar, unit_budgets, validate_channel, validate_eps
from .errors import ConvergenceError, ValidationError
from .proper_pure import RateProfile, validate_profile
from .rates import _LN2, RatePoint, _proper_gains, _proper_rates, rate_proper


# Called by nothing in the package; perfbench/layers.py wraps it (ROADMAP item 0).
def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


LAMBDA_FLOOR = 1e-9
_MAX_ITER = 200
_MAX_PIVOTS = 1000
# Root error allowed for in each cut's dual upper bound.  The slow oracle
# test certifies it with tests/conftest.py::inner_bnb, an interval
# branch-and-bound over p2 with a closed-form cubic maximum over p1 that
# shares no code with this module: at this tolerance, started from the
# exact point, it prunes every interval on 160 multipliers that the cutting
# plane visits or that sit at near ties.  On 2,520 other pairs the exact
# value is at most 7.0e-13 below the oracle's incumbent.  Each decade of a
# tighter slack costs that check about sqrt(10) times more.
_ROOT_SLACK = 1e-7
# pieces of [0, 1] for the resultant's fit, graded toward both ends
_EDGES = np.concatenate([[0.0], 10.0 ** np.arange(-8, 0),
                         1 - 10.0 ** np.arange(-1, -9, -1), [1.0]])
# 14 Chebyshev points interpolate the degree-13 resultant exactly; _FIT
# inverts the Vandermonde matrix T_k(x) = cos(k arccos x) (numpy's chebvander)
_NODES = np.cos(np.pi * (np.arange(14) + 0.5) / 14)
_FIT = np.linalg.inv(np.cos(np.arange(14) * np.arccos(_NODES)[:, None]))
_T2 = _EDGES[:-1, None] + 0.5 * np.diff(_EDGES)[:, None] * (1 + _NODES)
# colleague matrix of T_13, tridiagonal; a degree-13 series c adds
# -c[:-1] / c[-1] times _COLLEAGUE_WEIGHT to its last column (numpy's
# chebcompanion)
_COLLEAGUE_WEIGHT = np.r_[np.sqrt(0.5), np.full(12, 0.5)]
_COLLEAGUE = np.diag(_COLLEAGUE_WEIGHT[:-1], 1) + np.diag(_COLLEAGUE_WEIGHT[:-1], -1)
# rho^k, k = 0..13, on the Bernstein ellipse through 1 + 1e-9 + 1e-3 i (rho = 1.0321)
_REACH = np.exp(np.arccosh(1 + 1e-9 + 1e-3j).real * np.arange(14))


@dataclass(frozen=True)
class DualVariables:
    """Multipliers for the rate constraints (mu) and power constraints
    (lambda).  ``lam_k`` prices power per unit of user k's budget: it is
    ``P_k`` times the multiplier of ``p_k <= P_k`` in the caller's units."""

    mu1: float
    mu2: float
    lam1: float
    lam2: float

    def __post_init__(self):
        if not all(math.isfinite(real_scalar("multipliers", v))
                   for v in (self.mu1, self.mu2, self.lam1, self.lam2)):
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
    """One dual evaluation: multipliers (per unit of budget), the inner
    maximizer ``p_star`` (in the caller's units), its rates, and value."""

    dv: DualVariables
    p_star: tuple[float, float]
    rates: RatePoint
    value: float


class _InnerProblem:
    """The inner objective: the proper rates of ``gains`` weighted by ``mu``
    (:func:`tinregion.rates._proper_rates`) minus the power penalty ``lam``.
    ``value`` works elementwise on scalars and arrays.
    """

    def __init__(self, gains, mu, lam):
        self.gains, self.mu, self.lam = gains, mu, lam

    @property
    def peak(self):
        """Maximizer of each user's interference-free objective, for positive
        ``lam``: zero exactly when lam ln 2 >= mu g, so 1 / g never overflows."""
        return tuple(
            max(mu / (lam * _LN2) - 1.0 / g, 0.0) if mu * g > lam * _LN2 else 0.0
            for mu, lam, g in zip(self.mu, self.lam, self.gains[0])
        )

    def value(self, p1, p2):
        """Weighted proper sum rate minus the power penalty at ``(p1, p2)``."""
        r1, r2 = _proper_rates(self.gains, p1, p2)
        return self.mu[0] * r1 + self.mu[1] * r2 - self.lam[0] * p1 - self.lam[1] * p2

    def swapped(self) -> "_InnerProblem":
        """The same objective with the users' roles exchanged."""
        return _InnerProblem(tuple(v[::-1] for v in self.gains),
                             self.mu[::-1], self.lam[::-1])

    def p1_max(self, p2, cap1: float):
        """Maximizers and maxima of ``value(p1, p2)`` over ``p1`` in
        ``[0, cap1]`` for a 1-D array ``p2`` of user 2's power.  With
        ``A = q_1(p2) = (g_1 + p2 c_1) / (1 + p2 n_1)``, ``B = 1 + p2 g_2``,
        ``C = n_2 + p2 c_2`` and ``N = n_2`` it maximizes ``[mu1 ln(1 + A p1) + mu2 ln((B + C p1)
        / (1 + N p1))]/ln 2 - lam1 p1 - lam2 p2``, whose derivative times its
        three positive denominators is a cubic.  The cubic's roots and both
        ends are feasible candidates, so a spurious root can only lose.
        """
        (g1, g), _, (n1, N), (c1, c) = self.gains
        mu1, mu2 = self.mu
        lam = self.lam[0] * _LN2
        A = (g1 + p2 * c1) / (1.0 + p2 * n1)
        B = 1.0 + p2 * g
        C = N + p2 * c
        # In the scaled power t = p1 / cap1 each linear factor is divided by
        # its value at t = 1 so that no product overflows: the derivative
        # times (1 + A p1)(B + C p1)(1 + N p1) is, up to a positive factor,
        # mu1 alpha_1 beta nu + mu2 (beta_1 nu_0 - nu_1 beta_0) alpha
        # - lam cap1 alpha beta nu, with coefficients of t^0 .. t^3.
        one = np.ones_like(B)
        alpha, beta, nu = (
            np.stack([u, v], axis=1) / (u + v)[:, None]
            for u, v in ((one, A * cap1), (B, C * cap1), (one, N * cap1 * one))
        )
        beta_nu = _mul(beta, nu)
        c = -lam * cap1 * _mul(alpha, beta_nu)
        c[:, :3] += mu1 * alpha[:, 1:] * beta_nu
        c[:, :2] += mu2 * (beta[:, 1:] * nu[:, :1] - nu[:, 1:] * beta[:, :1]) * alpha
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
        vals = self.value(cap1 * t, p2[:, None])
        best = np.argmax(vals, axis=1)
        rows = np.arange(len(c))
        return cap1 * t[rows, best], vals[rows, best]


def _mul(a, b):
    """Batched products of polynomials, lowest power first on the last axis."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(a.shape[-1]):
        out[..., i:i + b.shape[-1]] += a[..., i:i + 1] * b
    return out


def _stationary_t2(prob: _InnerProblem) -> np.ndarray:
    """Every ``t2 = p2 / peak_2`` in ``[0, 1]`` of an interior critical
    point of the inner objective, plus spurious values.

    In the scaled powers ``t_k = p_k / peak_k`` the two partial derivatives
    times their positive denominators are polynomials of degree 3 and 2 in
    ``t1`` with coefficients of degree at most 2 and 3 in ``t2``.  So at a
    common root their 5x5 Sylvester determinant in ``t1``, of degree at most
    13 in ``t2``, vanishes.  It is interpolated on each piece of
    ``_EDGES``, with one scale per row and piece, and its roots come from
    :func:`_colleague_roots`.
    """
    (g1, g2), (x1, x2), (n1, n2), (c1, c2) = prob.gains
    (mu1, mu2), (cap1, cap2) = prob.mu, prob.peak
    lam1, lam2 = (lam * _LN2 for lam in prob.lam)
    t2 = _T2[..., None]
    # B_k = 1 + g_k p_k + n_k p_j + c_k p_1 p_2 and D_k = 1 + n_j p_k, each
    # divided by its value s_k, e_k at t = (1, 1) so that no product overflows
    s1 = 1 + n1 * cap2 + cap1 * (g1 + c1 * cap2)
    s2 = 1 + g2 * cap2 + cap1 * (n2 + c2 * cap2)
    e1, e2 = 1 + n1 * cap2, 1 + n2 * cap1
    b1 = np.concatenate([1 + n1 * cap2 * t2, cap1 * (g1 + c1 * cap2 * t2)], -1) / s1
    b2 = np.concatenate([1 + g2 * cap2 * t2, cap1 * (n2 + c2 * cap2 * t2)], -1) / s2
    # dL/dp_k ln 2 times B_1 B_2 D_k / (s_1 s_2 e_k), as polynomials in t1
    da = -lam1 * b1
    da[..., :1] += mu1 * (g1 + c1 * cap2 * t2) / s1
    f1 = _mul(da, _mul(b2, np.array([1.0, n2 * cap1]) / e2))
    f1[..., :2] -= mu2 * x2 * cap2 / s2 / e2 * t2 * b1
    db = mu2 * np.array([g2, c2 * cap1]) / s2 - lam2 * b2
    f2 = (1 + n1 * cap2 * t2) / e1 * _mul(b1, db)
    f2[..., 1:] -= mu1 * x1 * cap1 / s1 / e1 * b2
    f1 /= np.maximum(np.abs(f1).max(axis=(1, 2), keepdims=True), 1e-300)
    f2 /= np.maximum(np.abs(f2).max(axis=(1, 2), keepdims=True), 1e-300)
    syl = np.zeros(_T2.shape + (5, 5))
    for i in range(2):
        syl[..., i, i:i + 4] = f1[..., ::-1]
    for i in range(3):
        syl[..., 2 + i, i:i + 3] = f2[..., ::-1]
    return _colleague_roots(np.linalg.det(syl) @ _FIT.T)


def _colleague_roots(coef: np.ndarray) -> np.ndarray:
    """The roots kept from the Chebyshev series ``coef`` of the pieces of
    ``_EDGES``, mapped into ``[0, 1]`` in piece order.  A series with
    ``|c_0| > sum_{k>=1} |c_k| rho^k`` has no root inside the Bernstein
    ellipse ``E_rho``, where ``|T_k| <= rho^k``, which holds the window of
    kept roots; such a piece skips the eigensolve.  A margin of 1e-9 of
    ``sum_k |c_k| rho^k`` covers the eigensolver's backward error."""
    # a vanishing leading coefficient only sends roots far off the piece
    size, lead = np.abs(coef).max(axis=1, keepdims=True), coef[:, -1:]
    lead = np.where(np.abs(lead) > 1e-14 * size, lead, 1e-14 * size + 1e-300)
    coef = np.concatenate([coef[:, :-1], lead], axis=1)
    live = 2 * np.abs(coef[:, 0]) <= (1 + 1e-9) * (np.abs(coef) @ _REACH)
    colleague = np.repeat(_COLLEAGUE[None], np.count_nonzero(live), axis=0)
    colleague[:, :, -1] -= coef[live, :-1] / coef[live, -1:] * _COLLEAGUE_WEIGHT
    z = np.linalg.eigvals(colleague)
    # a near-double root may come out as a pair with a small imaginary part
    keep = (np.abs(z.imag) <= 1e-3) & (np.abs(z.real) <= 1.0 + 1e-9)
    start, width = _EDGES[:-1][live, None], np.diff(_EDGES)[live, None]
    t = start + 0.5 * width * (1.0 + z.real.clip(-1, 1))
    return t[keep]


def _exact_inner(prob: _InnerProblem):
    """Global maximizer and maximum of the inner objective.

    Every maximizer lies in ``[0, peak_1] x [0, peak_2]``: interference only
    lowers a user's own-rate marginal (``q_k(p_j) <= g_k``) and the cross
    term only lowers the objective, so past ``peak_k`` the objective falls
    in ``p_k``.  There the maximum is at a critical point, at ``p2`` in
    ``{0, peak_2}``, or at ``p1 = 0``, where it is at ``p2 = peak_2`` (on
    ``p1 = peak_1`` the ``p1``-derivative is at most 0).  So each end and
    root of :func:`_stationary_t2` is a candidate ``p2``, scored exactly
    over ``p1`` by :meth:`_InnerProblem.p1_max`; a spurious root only loses.

    A cross link into receiver 2 orthogonal to ``h22`` (``x_2 = 0``, as
    when ``h21 = 0``) splits ``B_2 = (1 + g_2 p_2)(1 + n_2 p_1)``, so both
    stationarity polynomials share a root in ``t1`` and the determinant
    vanishes; near it the determinant is roundoff.  So user 2 is the user
    whose cross link has the larger share ``x_k / (g_k n_k)`` along its
    direct link.  With both shares zero the objective separates and the
    ends suffice.
    """
    share = [x / (g * n) if g * n > 0 else 0.0 for g, x, n in zip(*prob.gains[:3])]
    if share[1] < share[0]:
        (p2, p1), val = _exact_inner(prob.swapped())
        return (p1, p2), val
    cap1, cap2 = prob.peak
    p2 = np.array([0.0, cap2])
    if cap1 > 0 and cap2 > 0 and share[1] > 0:
        p2 = np.concatenate([p2, cap2 * _stationary_t2(prob)])
    p1, vals = prob.p1_max(p2, cap1)
    i = int(np.argmax(vals))
    return (float(p1[i]), float(p2[i])), float(vals[i])


def _master(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, work=None):
    """Minimizer ``y`` of the cut model ``max_i a_i . y + b_i`` over the box
    ``lo <= y <= hi``, a certified lower bound on its minimum, the final
    working set, which stays dual feasible when cuts are appended, and the
    convex weights ``tau`` of the cuts, at most ``d + 1`` of them nonzero.

    A dual simplex on the epigraph ``t >= a_i . y + b_i`` from ``work``, or
    else from the highest cut at ``hi`` and the box rows its slope points
    to.  Each pivot enters the first violated row and drops the row the
    dual ratio test picks, ties to the first (Bland's rule).  By weak
    duality ``tau``, the cut multipliers scaled to sum 1, gives the bound
    ``tau . b + min over the box of (tau a) . y``, whatever roundoff the
    pivots made.
    """
    m, d = a.shape
    # rows G x >= h over x = (y, t): lower box, upper box, cuts; unit rows
    # keep a basis that holds a steep cut well conditioned
    G = np.zeros((2 * d + m, d + 1))
    G[:d, :d], G[d:2 * d, :d] = np.eye(d), -np.eye(d)
    G[2 * d:, :d], G[2 * d:, d] = -a, 1.0
    h = np.concatenate([lo, -hi, b])
    norm = np.linalg.norm(G, axis=1)
    G, h = G / norm[:, None], h / norm
    if work is None:
        top = np.argmax(a @ hi + b)
        work = np.append(np.where(a[top] > 0, 0, d) + np.arange(d), 2 * d + top)
    work = np.array(work)
    for _ in range(_MAX_PIVOTS):
        basis, rhs = G[work], h[work]
        inv = np.linalg.inv(basis)
        x, mult = inv @ rhs, np.maximum(inv[-1], 0.0)  # basis^T mult = e_t
        slack = G @ x - h
        slack[work] = 0.0  # basis rows hold; others count past their roundoff
        enter = np.nonzero(slack < -1e-12 * (np.abs(G) @ np.abs(x) + np.abs(h)))[0]
        if not enter.size:
            # only cut rows have a t-coefficient; theirs is 1 / norm
            tau = np.zeros(len(G))
            tau[work] = np.where(basis[:, d] > 0, mult, 0.0) / norm[work]
            tau = tau[2 * d:] / tau.sum()
            g = tau @ a
            bound = tau @ b + np.minimum(g * lo, g * hi).sum()
            # one refinement step: a steep cut magnifies the error of y
            x += inv @ (rhs - basis @ x)
            return np.clip(x[:d], lo, hi), bound, work, tau
        alpha = G[enter[0]] @ inv  # the entering row in terms of the basis
        pos = alpha > 1e-12 * np.abs(alpha).max()
        ratio = np.where(pos, mult, np.inf) / np.where(pos, alpha, 1.0)
        leave = np.lexsort((work, ratio))[0]  # first of the smallest ratios
        if ratio[leave] == np.inf:
            raise ConvergenceError("master LP ratio test found no row to leave")
        work[leave] = enter[0]
    raise ConvergenceError(f"master LP made {_MAX_PIVOTS} pivots without an optimum")


def _lambda_max(ch: SimoChannel, profile: RateProfile) -> float:
    # the dual is at least lam1 + lam2, so no optimal lam_k exceeds its minimum,
    # the time-sharing optimum, which is at most log2(1 + g_k) / rho_k at unit budgets
    g = _proper_gains(ch)[0]
    rho = (profile.rho1, profile.rho2)
    return 10.0 * max(math.log1p(g[k]) / rho[k] for k in (0, 1) if rho[k] > 0) / _LN2


def _multiplier_box(ch: SimoChannel, profile: RateProfile):
    """The master's multipliers ``(mu1, mu2, lam1, lam2) = z0 + E y``, ``lam
    >= LAMBDA_FLOOR``, over the box ``lo <= y <= hi``, as ``(z0, E, lo, hi)``:
    ``rho . mu = 1`` eliminates ``mu_i`` of the larger rho (``mu1`` on a tie),
    so ``y = (mu_j, lam1, lam2)`` and ``mu_i``'s slope ``-rho_j / rho_i`` is
    at most 1 in size; or ``y = (lam1, lam2)`` at a single-user profile's ``mu``."""
    rho = profile.rho1, profile.rho2
    lam_max = max(_lambda_max(ch, profile), 10 * LAMBDA_FLOOR)
    lo, hi = np.full(2, LAMBDA_FLOOR), np.full(2, lam_max)
    if rho[0] > 0 and rho[1] > 0:
        i = int(rho[1] > rho[0])
        E = np.delete(np.eye(4), i, axis=1)
        E[i, 0] = -rho[1 - i] / rho[i]
        return np.eye(4)[i] / rho[i], E, np.r_[0.0, lo], np.r_[1.0 / rho[1 - i], hi]
    mu = (1.0 / rho[0], 0.0) if rho[0] > 0 else (0.0, 1.0 / rho[1])
    return np.r_[mu, 0.0, 0.0], np.eye(4)[:, 2:], lo, hi


def _fixed_strategies(gains, profile: RateProfile):
    """Power pairs at unit budgets whose cuts ``mu . r(p) + lam . (1 - p)``
    minorize the dual at every multiplier, and their rates under ``gains``,
    as ``(powers, rates)``: full power and, per user, one power per decade
    past its budget up to past the largest inner maximizer the box allows,
    ``mu_max / (LAMBDA_FLOOR ln 2)``, with the other user silent or at full
    power.  Their negative slopes in ``lam`` hold the master off the lambda
    floor."""
    top = math.log10(1.0 / min(r for r in (profile.rho1, profile.rho2) if r > 0)
                     / (LAMBDA_FLOOR * _LN2))
    pairs = [(p, q) for p in 10.0 ** np.arange(1, math.ceil(top) + 1) for q in (0.0, 1.0)]
    powers = np.array([(1.0, 1.0)] + pairs + [(q, p) for p, q in pairs])
    return powers, np.transpose(_proper_rates(gains, *powers.T))


def _strategies(gains, profile: RateProfile, cuts, ch: SimoChannel):
    """The master's strategies in row order, as ``(powers, rates)`` arrays of
    pairs at unit budgets: those of :func:`_fixed_strategies`, then the
    cuts', whose ``p_star`` is over the budgets of ``ch`` (0 at a zero one)."""
    powers, rates = _fixed_strategies(gains, profile)
    p, budget = np.array([c.p_star for c in cuts]).reshape(-1, 2), np.array([ch.p1, ch.p2])
    p = np.divide(p, budget, out=np.zeros_like(p), where=budget > 0)
    return np.r_[powers, p], np.r_[rates, np.reshape([c.rates for c in cuts], (-1, 2))]


def _as_cuts(cuts) -> list[Cut]:
    """``cuts`` as a list, checked to hold only :class:`Cut` objects."""
    try:
        cuts = list(cuts)
    except TypeError:
        cuts = None
    if cuts is None or not all(isinstance(c, Cut) for c in cuts):
        raise ValidationError("cuts must be a list of Cut objects from cutting_plane")
    return cuts


@dataclass(frozen=True)
class CuttingPlaneResult:
    """The certified dual upper bound of :func:`cutting_plane`, its multipliers,
    every cut, and the mixture of the final master; unpacks as ``(upper, dv, cuts)``."""

    upper: float
    dv: DualVariables
    cuts: list[Cut]
    solution: TimeSharingSolution

    def __iter__(self):
        return iter((self.upper, self.dv, self.cuts))


def cutting_plane(
    ch: SimoChannel,
    profile: RateProfile,
    eps: float,
    seed_cuts: list[Cut] | None = None,
) -> CuttingPlaneResult:
    """Minimize the dual by Kelley's cutting-plane method; recover the mixture.

    Each iteration minimizes the affine cut model over the multiplier box
    of :func:`_multiplier_box` (the master LP, solved by :func:`_master`),
    then evaluates the true dual (via the exact inner solve, plus
    ``_ROOT_SLACK`` for root error) at the master's minimizer to add a cut.
    Stops when the gap between the best evaluated dual value and the
    master's weak-duality lower bound, taken from its multipliers rather
    than its primal value, is at most ``eps``; the gap holds the slack, so
    ``eps`` must exceed ``_ROOT_SLACK``.  It solves ``ch`` at unit budgets
    (:func:`~tinregion.channel.unit_budgets`), so its multipliers price power
    per unit of budget; the cuts' ``p_star`` are in the caller's units.

    The model's first rows are the cuts of :func:`_fixed_strategies`, which
    fall in ``lam`` where exact cuts (``p <= 1``) rise, so the masters do not
    chase the lambda floor, near which the dual grows like ``mu log(1/lam)``.

    Once the gap closes, one more master over its rows and the single-user
    corners, warm from its working set, gives the mixture ``solution``.

    ``seed_cuts`` warm-starts the affine model.  The dual function itself
    does not depend on the profile (only the multiplier constraint does),
    so cuts collected at one profile remain valid minorants at any other;
    region sweeps exploit this.  Certified dual values are nevertheless
    recomputed under the current profile's constraint.
    """
    validate_channel(ch)
    validate_profile(profile)
    validate_eps(eps)
    if eps <= _ROOT_SLACK:
        raise ValidationError(f"eps must exceed the root slack {_ROOT_SLACK}, got {eps}")
    unit = unit_budgets(ch)
    box = z0, E, lo, hi = _multiplier_box(unit, profile)
    cuts = [] if seed_cuts is None else _as_cuts(seed_cuts)
    gains = _proper_gains(unit)
    # row i minorizes the dual by (rates_i, 1 - powers_i) . (mu, lam): the fixed
    # strategies first, so that a warm working set keeps its rows, then the cuts
    powers, rates = _strategies(gains, profile, cuts, ch)
    best_upper = math.inf
    best_dv = None

    def add_cut(dv: DualVariables):
        nonlocal powers, rates, best_upper, best_dv
        (p1, p2), val = _exact_inner(_InnerProblem(gains, (dv.mu1, dv.mu2), (dv.lam1, dv.lam2)))
        r = rate_proper(unit, p1, p2)
        value = dv.lam1 + dv.lam2 + val
        cuts.append(Cut(dv=dv, p_star=(p1 * ch.p1, p2 * ch.p2), rates=r, value=value))
        powers, rates = np.vstack([powers, (p1, p2)]), np.vstack([rates, r])
        if value + _ROOT_SLACK < best_upper:
            best_upper, best_dv = value + _ROOT_SLACK, dv

    work = None
    for _ in range(_MAX_ITER):
        model = np.hstack([rates, 1 - powers])
        y, t_model, work, _ = _master(model @ E, model @ z0, lo, hi, work)
        if best_upper - t_model <= eps:
            solution = _mixture(powers, rates, box, unit, ch, work)
            return CuttingPlaneResult(best_upper, best_dv, cuts, solution)
        mu1, mu2, lam1, lam2 = z0 + E @ y
        add_cut(DualVariables(max(mu1, 0.0), max(mu2, 0.0), lam1, lam2))
    raise ConvergenceError(
        f"cutting-plane method did not reach gap {eps} in {_MAX_ITER} iterations"
    )


def _mixture(powers, rates, box, unit, ch, work=None) -> TimeSharingSolution:
    """The mixture of largest common scaling over the master's strategies and
    the single-user corners, in ``ch``'s units: the weights of one more
    :func:`_master`, cold or from ``work``, which appended rows keep dual feasible."""
    corners = np.array([(1.0, 0.0), (0.0, 1.0)])
    powers = np.r_[powers, corners]
    model = np.c_[np.r_[rates, [rate_proper(unit, *p) for p in corners]], 1 - powers]
    z0, E, lo, hi = box
    tau = _master(model @ E, model @ z0, lo, hi, work)[3]
    keep = tau > 0
    tau = tau[keep] / tau[keep].sum()
    powers = powers[keep] * [ch.p1, ch.p2]
    entries = tuple((float(t), float(p1), float(p2)) for t, (p1, p2) in zip(tau, powers))
    r1, r2 = tau @ model[keep, :2]
    return TimeSharingSolution(entries=entries, rates=RatePoint(float(r1), float(r2)))


def primal_recovery(
    cuts: list[Cut], profile: RateProfile, ch: SimoChannel
) -> TimeSharingSolution:
    """Recover an explicit time-sharing mixture from a list of cuts.

    Maximizing the common scaling over mixtures of the fixed pairs, the
    inner maximizers and the single-user corners, which let a single-user
    profile collapse to one full-power strategy, is the LP dual of the
    master, so one cold :func:`_master` gives a mixture of at most four: over
    a :func:`cutting_plane` call's cuts, that call's ``solution``, whose
    scaling is at least its dual bound minus ``eps``.  The cuts must come
    from :func:`cutting_plane` on the same channel; their rates are reused.
    """
    validate_channel(ch)
    validate_profile(profile)
    cuts = _as_cuts(cuts)
    if not cuts:
        raise ValidationError("no cuts to recover from")
    unit = unit_budgets(ch)
    strategies = _strategies(_proper_gains(unit), profile, cuts, ch)
    return _mixture(*strategies, _multiplier_box(unit, profile), unit, ch)
