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
Noferini and Townsend, Numer. Math. 2015): the eigenvalues of one 15x15
block companion linearization of their 5x5 Sylvester matrix, cubic in user
2's power, polished by Newton steps on the resultant in closed form; user 1's
best power for each is a closed-form cubic root.  The explicit mixture is the
primal side of the same LP (Dantzig and Wolfe, Oper. Res. 1960): the convex
weights of one more master, over the fixed pairs, the inner maximizers and
the single-user corners, mix at most four strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SimoChannel, real_scalar, unit_budgets, validate_channel, validate_eps
from .errors import ConvergenceError, ValidationError
from .proper_pure import RateProfile, validate_profile
from .rates import _LN2, RatePoint, _clip_rate, _proper_gains, _proper_rates
from .rates import rate_proper  # noqa: F401  no caller here; perfbench wraps it (ROADMAP item 0)


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
# S(sigma + s) = sum_j Q_j s^j for a cubic matrix polynomial S(t) = sum_k S_k t^k:
# Q_j = sum_k C(k, j) sigma^(k - j) S_k, at two shifts outside [0, 1]
_SIGMAS = (-1.0, 2.0)
_SHIFTS = np.array([[[math.comb(k, j) * sigma ** (k - j) for k in range(4)] for j in range(4)]
                    for sigma in _SIGMAS])


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

    def swapped(self) -> "_InnerProblem":
        """The same objective with the users' roles exchanged."""
        return _InnerProblem(tuple(v[::-1] for v in self.gains),
                             self.mu[::-1], self.lam[::-1])

    def p1_max(self, p2, cap1: float):
        """Maximizers and maxima of the objective over ``p1`` in ``[0,
        cap1]`` for a 1-D array ``p2`` of user 2's power.  With
        ``A = q_1(p2) = (g_1 + p2 c_1) / (1 + p2 n_1)``, ``B = 1 + p2 g_2``,
        ``C = n_2 + p2 c_2`` and ``N = n_2`` it maximizes ``[mu1 ln(1 + A p1) + mu2 ln((B + C p1)
        / (1 + N p1))]/ln 2 - lam1 p1 - lam2 p2``, whose derivative times its
        three positive denominators is a cubic.  Its roots in ``(0, cap1)``
        and both ends are scored in plain floats; a spurious root only loses.
        """
        (g1, g), _, (n1, N), (c1, c) = self.gains
        mu1, mu2, lam1, lam2, cap1 = (float(v) for v in self.mu + self.lam + (cap1,))
        lc, v0, v1 = -lam1 * _LN2 * cap1, 1.0 / (1.0 + N * cap1), N * cap1 / (1.0 + N * cap1)
        out = []
        for b in p2.tolist():
            # in t = p1 / cap1, with alpha = a0 + a1 t, beta = b0 + b1 t and nu = v0 + v1 t
            # the linear factors over their values at t = 1 so that no product overflows,
            # the derivative times alpha beta nu is, up to a positive factor, k0 + k1 t +
            # k2 t^2 + k3 t^3 = mu1 a1 beta nu + mu2 (b1 v0 - v1 b0) alpha + lc alpha beta nu
            A, B, C = (g1 + b * c1) / (1.0 + b * n1) * cap1, 1.0 + b * g, (N + b * c) * cap1
            a0, a1, b0, b1 = 1.0 / (1.0 + A), A / (1.0 + A), B / (B + C), C / (B + C)
            bv0, bv1, bv2 = b0 * v0, b0 * v1 + b1 * v0, b1 * v1
            m, w = mu1 * a1, mu2 * (b1 * v0 - v1 * b0)
            k0 = lc * (a0 * bv0) + m * bv0 + w * a0
            k1 = lc * (a0 * bv1 + a1 * bv0) + m * bv1 + w * a1
            k2, k3 = lc * (a0 * bv2 + a1 * bv1) + m * bv2, lc * (a1 * bv2)
            # a dead cross link (N = 0), a silenced user 1 (A = 0) or a cubic
            # term negligible on [0, cap1] leaves a quadratic or linear one
            deg = abs(k3) <= 1e-12 * (abs(k0) + abs(k1) + abs(k2))
            roots = _quadratic_roots(k0, k1, k2) if deg else _cubic_roots(k0, k1, k2, k3)
            d1 = 1.0 + b * n1
            q1, pen, top, arg = g1 / d1 + c1 * (b / d1), lam2 * b, -math.inf, 0.0
            # a NaN, infinite or outside root only repeats an end, scored last
            for t in [t for t in roots if 0.0 < t < 1.0] + [0.0, 1.0]:
                p1 = cap1 * t
                d2 = 1.0 + p1 * N
                v = (mu1 * (math.log1p(p1 * q1) / _LN2)
                     + mu2 * (math.log1p(b * (g / d2 + c * (p1 / d2))) / _LN2) - lam1 * p1 - pen)
                if v > top:
                    top, arg = v, p1
            out.append((arg, top))
        return tuple(np.array(out).reshape(-1, 2).T)


def _quadratic_roots(c0, c1, c2):
    """The roots of ``c0 + c1 t + c2 t^2`` by the stable formula (``c0 / q``
    solves a linear one), or 0 where undefined; for a complex pair (``c2 !=
    0``), its real part ``q / c2`` and a spurious ``c0 / q``."""
    disc = c1 * c1 - 4.0 * c2 * c0
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1) if disc >= 0.0 else c1)
    return q / c2 if c2 else 0.0, c0 / q if q else 0.0


def _cubic_roots(c0, c1, c2, c3):
    """The roots of ``P(t) = c0 + c1 t + c2 t^2 + c3 t^3`` (``c3 != 0``), a complex
    pair as in :func:`_quadratic_roots`, each after one Newton step kept where it
    lowers ``|P|``.  With ``t = x - s``, ``P / c3 = x^3 + p x + q``; the trigonometric
    form, or Cardano's real root free of cancellation, gives the real root ``r`` of
    largest size, which a large ``s`` does not swamp.  The others solve ``t^2 + e t
    + f``, deflated from the constant term if ``r`` is the largest root, else the top."""
    s, b, d = c2 / c3 / 3.0, c1 / c3, c0 / c3
    p, q = b - 3.0 * s * s, d - s * (b - 2.0 * s * s)
    h = 0.25 * q * q + p * p * p / 27.0
    if h < 0.0:  # three real roots, so p < 0; the middle one is never the largest
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(max(3.0 * q / (p * m), -1.0), 1.0)) / 3.0
        r = max(m * math.cos(phi) - s, m * math.cos(phi + 2.0 * math.pi / 3.0) - s, key=abs)
    else:
        u = -0.5 * q - math.copysign(math.sqrt(h), q)
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        r = (u - p / (3.0 * u) if u else 0.0) - s
    big = r and abs(r) * r * r >= abs(d)
    e, f = ((-d / r - b) / r, -d / r) if big else (3.0 * s + r, b + r * (3.0 * s + r))
    for t in (r, *_quadratic_roots(f, e, 1.0)):
        P, dP = ((c3 * t + c2) * t + c1) * t + c0, (3.0 * c3 * t + 2.0 * c2) * t + c1
        step = t - P / dP if dP else t
        yield step if abs(((c3 * step + c2) * step + c1) * step + c0) < abs(P) else t


def _bilinear(p, q):
    """The product of two polynomials of degree 1 in each of ``t1`` and ``t2``, with
    the coefficient of ``t1^i t2^j`` in row ``i`` and column ``j`` of nested lists."""
    (p00, p01), (p10, p11) = p
    (q00, q01), (q10, q11) = q
    return [[p00 * q00, p00 * q01 + p01 * q00, p01 * q01],
            [p00 * q10 + p10 * q00, p00 * q11 + p01 * q10 + p10 * q01 + p11 * q00,
             p01 * q11 + p11 * q01],
            [p10 * q10, p10 * q11 + p11 * q10, p11 * q11]]


def _stationary_t2(prob: _InnerProblem) -> np.ndarray:
    """Every ``t2 = p2 / peak_2`` in ``[0, 1]`` of an interior critical
    point of the inner objective, plus spurious values.

    In the scaled powers ``t_k = p_k / peak_k`` the two partial derivatives
    times their positive denominators are polynomials of degree 3 and 2 in
    ``t1`` with coefficients of degree at most 2 and 3 in ``t2``.  So at a
    common root their Sylvester resultant in ``t1`` vanishes; its roots come
    from :func:`_resultant_roots`.
    """
    (g1, g2), (x1, x2), (n1, n2), (c1, c2) = prob.gains
    (mu1, mu2), (cap1, cap2) = prob.mu, prob.peak
    lam1, lam2 = (lam * _LN2 for lam in prob.lam)
    # B_k = 1 + g_k p_k + n_k p_j + c_k p_1 p_2 and D_k = 1 + n_j p_k, each
    # divided by its value s_k, e_k at t = (1, 1) so that no product overflows
    s1 = 1 + n1 * cap2 + cap1 * (g1 + c1 * cap2)
    s2 = 1 + g2 * cap2 + cap1 * (n2 + c2 * cap2)
    e1, e2 = 1 + n1 * cap2, 1 + n2 * cap1
    b1 = [[1 / s1, n1 * cap2 / s1], [cap1 * g1 / s1, cap1 * c1 * cap2 / s1]]
    b2 = [[1 / s2, g2 * cap2 / s2], [cap1 * n2 / s2, cap1 * c2 * cap2 / s2]]
    # dL/dp_k ln 2 times B_1 B_2 D_k / (s_1 s_2 e_k); a factor u + v t_j
    # mixes neighbouring coefficients along the axis of t_j
    da = [[mu1 * g1 / s1 - lam1 * b1[0][0], mu1 * c1 * cap2 / s1 - lam1 * b1[0][1]],
          [-lam1 * b1[1][0], -lam1 * b1[1][1]]]
    f1, zero, u, v = _bilinear(da, b2), [0.0] * 3, 1 / e2, n2 * cap1 / e2
    f1 = [[u * x + v * y for x, y in zip(a, b)] for a, b in zip(f1 + [zero], [zero] + f1)]
    w = mu2 * x2 * cap2 / s2 / e2
    f1[:2] = [[r[0], r[1] - w * b[0], r[2] - w * b[1]] for r, b in zip(f1, b1)]
    db = [[mu2 * g2 / s2 - lam2 * b2[0][0], -lam2 * b2[0][1]],
          [mu2 * c2 * cap1 / s2 - lam2 * b2[1][0], -lam2 * b2[1][1]]]
    u, v = 1 / e1, n1 * cap2 / e1
    f2 = [[u * x + v * y for x, y in zip(r + [0.0], [0.0] + r)] for r in _bilinear(b1, db)]
    w = mu1 * x1 * cap1 / s1 / e1
    f2[1:] = [[r[0] - w * b[0], r[1] - w * b[1], *r[2:]] for r, b in zip(f2[1:], b2)]
    return _resultant_roots(f1, f2)


def _resultant_roots(f1, f2) -> np.ndarray:
    """The real parts in ``[0, 1]`` of the roots ``t2`` of the Sylvester
    determinant in ``t1`` of ``f1`` (4 x 3) and ``f2`` (3 x 4), polynomials in
    ``(t1, t2)`` with the coefficient of ``t1^i t2^j`` in row ``i`` and column
    ``j``, plus spurious values.  The 5x5 Sylvester matrix ``S(t2)`` is cubic;
    at the shift ``sigma`` of ``_SIGMAS`` where ``S(sigma)`` is farther from
    singular, the block companion matrix of ``S(sigma + 1/mu) mu^3`` times
    ``S(sigma)^-1``, 15 x 15, has the eigenvalues ``mu = 1 / (t2 - sigma)``
    (Mackey, Mackey, Mehl and Mehrmann, SIAM J. Matrix Anal. Appl. 2006).
    A pencil singular at both shifts gives no roots.  Roots with ``|Im t2| <=
    1e-3`` and ``Re t2`` within 1e-4 of ``[0, 1]`` are kept: a complex one, a
    near-double root that roundoff split, gives its real part; a real one
    gives the end of Newton steps by :func:`_polish`, whose closed form
    keeps the accuracy of the coefficients near ``t2 = 0``, where the shift
    loses it, and within 1e-4 of an end it stays a candidate too."""
    # t1 = alpha tau leaves the roots in t2 alone; alpha^d, the ratio of the
    # constant and leading coefficients in t1 (geometric mean over f1 and
    # f2, within 1e+-100), balances the powers of t1, which span up to 1e25
    f1, f2 = np.array(f1), np.array(f2)
    tops = [np.abs(f).max(axis=1).tolist() for f in (f1, f2)]
    logs = [(math.log(m[0]) - math.log(m[-1])) / (len(m) - 1) for m in tops if m[0] and m[-1]]
    alpha = math.exp(min(max(sum(logs) / len(logs), -230.0), 230.0)) if logs else 1.0
    f1, f2 = (f / (max(m) + 1e-300) * alpha ** np.arange(len(f))[:, None]
              for f, m in zip((f1, f2), tops))
    f1, f2 = f1 / (np.abs(f1).max() + 1e-300), f2 / (np.abs(f2).max() + 1e-300)
    syl = np.zeros((4, 5, 5))
    for i in range(2):
        syl[:3, i, i:i + 4] = f1[::-1].T
    for i in range(3):
        syl[:, 2 + i, i:i + 3] = f2[::-1].T
    # farther from singular: |det| over the product of the row norms (Hadamard)
    heads = (_SHIFTS[:, 0] @ syl.reshape(4, 25)).reshape(2, 5, 5)
    i = int(np.argmax(np.abs(np.linalg.det(heads))
                      / (np.linalg.norm(heads, axis=2).prod(axis=1) + 1e-300)))
    q = (_SHIFTS[i] @ syl.reshape(4, 25)).reshape(4, 5, 5)
    companion = np.eye(15, k=-5)
    try:
        companion[:5] = -np.linalg.solve(q[0], np.concatenate(q[1:], axis=1))
        mus = np.linalg.eigvals(companion).tolist()
    except np.linalg.LinAlgError:
        return np.zeros(0)
    f1, f2, out = f1.tolist(), f2.tolist(), []
    for mu in mus:
        # |t2 - sigma| <= 4 on the window, so mu = 0, an infinite t2, is left out
        t = _SIGMAS[i] + 1 / mu if abs(mu) >= 0.25 else math.inf
        if abs(t.imag) <= 1e-3 and -1e-4 <= t.real <= 1 + 1e-4:
            near = not 1e-4 < t.real < 1 - 1e-4
            if near or t.imag:
                out.append(t.real)
            if near or not t.imag:
                out.append(_polish(f1, f2, t.real))
    return np.array([t for t in out if 0.0 <= t <= 1.0])


def _polish(f1, f2, t):
    """Newton steps from ``t`` on the Sylvester determinant of
    :func:`_resultant_roots` in closed form, the 13-term resultant of the
    cubic ``a`` and the quadratic ``b`` in ``t1`` that ``f1`` and ``f2`` take
    at ``t2``, while they stay within 1e-4 of ``[0, 1]``; the derivative
    comes from a complex step, ``Im R(t + i h) / h``."""
    for _ in range(8):
        z = complex(t, 1e-30)
        a0, a1, a2, a3 = (r[0] + z * (r[1] + z * r[2]) for r in f1)
        b0, b1, b2 = (r[0] + z * (r[1] + z * (r[2] + z * r[3])) for r in f2)
        r = (a0 * (a0 * b2 * b2 * b2 - a1 * b1 * b2 * b2 - 2 * a2 * b0 * b2 * b2
                   + a2 * b1 * b1 * b2 + 3 * a3 * b0 * b1 * b2 - a3 * b1 * b1 * b1)
             + b0 * (a1 * a1 * b2 * b2 - a1 * a2 * b1 * b2 - 2 * a1 * a3 * b0 * b2
                     + a1 * a3 * b1 * b1 + a2 * a2 * b0 * b2 - a2 * a3 * b0 * b1
                     + a3 * a3 * b0 * b0))
        step = r.real / r.imag * 1e-30 if r.imag else 0.0
        if not step or not -1e-4 <= t - step <= 1 + 1e-4:
            break
        t -= step
        if abs(step) <= 1e-8 * abs(t):
            break
    return t


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


def _lambda_max(gains, profile: RateProfile) -> float:
    # the dual is at least lam1 + lam2, so no optimal lam_k exceeds its minimum,
    # the time-sharing optimum, which is at most log2(1 + g_k) / rho_k at unit budgets
    g, rho = gains[0], (profile.rho1, profile.rho2)
    return 10.0 * max(math.log1p(g[k]) / rho[k] for k in (0, 1) if rho[k] > 0) / _LN2


def _multiplier_box(gains, profile: RateProfile):
    """The master's multipliers ``(mu1, mu2, lam1, lam2) = z0 + E y``, ``lam
    >= LAMBDA_FLOOR``, over the box ``lo <= y <= hi``, as ``(z0, E, lo, hi)``:
    ``rho . mu = 1`` eliminates ``mu_i`` of the larger rho (``mu1`` on a tie),
    so ``y = (mu_j, lam1, lam2)`` and ``mu_i``'s slope ``-rho_j / rho_i`` is
    at most 1 in size; or ``y = (lam1, lam2)`` at a single-user profile's ``mu``."""
    rho = profile.rho1, profile.rho2
    lam_max = max(_lambda_max(gains, profile), 10 * LAMBDA_FLOOR)
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
    gains = _proper_gains(unit_budgets(ch))
    box = z0, E, lo, hi = _multiplier_box(gains, profile)
    cuts = [] if seed_cuts is None else _as_cuts(seed_cuts)
    # row i minorizes the dual by (rates_i, 1 - powers_i) . (mu, lam): the fixed
    # strategies first, so that a warm working set keeps its rows, then the cuts
    powers, rates = _strategies(gains, profile, cuts, ch)
    best_upper = math.inf
    best_dv = None

    def add_cut(dv: DualVariables):
        nonlocal powers, rates, best_upper, best_dv
        (p1, p2), val = _exact_inner(_InnerProblem(gains, (dv.mu1, dv.mu2), (dv.lam1, dv.lam2)))
        r = RatePoint(*(_clip_rate(x) for x in _proper_rates(gains, p1, p2)))
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
            solution = _mixture(powers, rates, box, gains, ch, work)
            return CuttingPlaneResult(best_upper, best_dv, cuts, solution)
        mu1, mu2, lam1, lam2 = (z0 + E @ y).tolist()
        add_cut(DualVariables(max(mu1, 0.0), max(mu2, 0.0), lam1, lam2))
    raise ConvergenceError(
        f"cutting-plane method did not reach gap {eps} in {_MAX_ITER} iterations"
    )


def _mixture(powers, rates, box, gains, ch, work=None) -> TimeSharingSolution:
    """The mixture of largest common scaling over the master's strategies and
    the single-user corners, in ``ch``'s units: the weights of one more
    :func:`_master`, cold or from ``work``, which appended rows keep dual feasible."""
    corners = np.array([(1.0, 0.0), (0.0, 1.0)])
    powers = np.r_[powers, corners]
    model = np.c_[np.r_[rates, np.transpose(_proper_rates(gains, *corners.T))], 1 - powers]
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
    gains = _proper_gains(unit_budgets(ch))
    strategies = _strategies(gains, profile, cuts, ch)
    return _mixture(*strategies, _multiplier_box(gains, profile), gains, ch)
