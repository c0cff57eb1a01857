"""Globally optimal rate balancing with proper signals and pure strategies.

For a rate profile ``(rho1, rho2)`` the balancing problem maximizes the
common scaling ``R`` such that ``r_k >= rho_k * R`` subject to per-user
power caps.  Scaling both powers up raises both MMSE SINRs, so the optimum
lies on a full-power edge ``p1 = P1`` or ``p2 = P2``, where both rates are
closed form in one power and the balance condition has one root
(Charafeddine, Sezgin and Paulraj, Allerton 2007); :func:`balance_pure_proper`
finds it with a certified gap in ``R``.

:func:`gamma_of_R` is the feasibility margin of the targets ``rho_k * R``
by a different route: a fixed point of MMSE filter updates and the Perron
root of the extended 3x3 nonnegative coupling matrix (Schubert and Boche),
computed directly from its eigenvalues.  It no longer drives the balancing;
the tests check the edge root against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SimoChannel, real_scalar, validate_channel, validate_eps
from .errors import ConvergenceError, ValidationError
from .rates import RatePoint, _proper_gains, _proper_rates, mmse_filter, rate_proper

# Feasibility margin reported for R = 0 (all-zero rate targets).
GAMMA_CAP = 1e18

_FP_MAX_ITER = 500
FP_TOL = 1e-10  # tolerance on the eigenvalue change per filter update

# Illinois steps of the edge root; it converges superlinearly, so the cap is
# reached only when eps is below the resolution of the rates.
_ROOT_MAX_STEPS = 200


@dataclass(frozen=True)
class RateProfile:
    rho1: float
    rho2: float

    def __post_init__(self):
        rho1, rho2 = real_scalar("rho1", self.rho1), real_scalar("rho2", self.rho2)
        if not (0.0 <= rho1 <= 1.0 and 0.0 <= rho2 <= 1.0):
            raise ValidationError("profile entries must lie in [0, 1]")
        if abs(rho1 + rho2 - 1.0) > 1e-9:
            raise ValidationError("profile must sum to 1")

    @classmethod
    def from_beta(cls, beta: float) -> "RateProfile":
        beta = real_scalar("beta", beta)
        return cls(beta, 1.0 - beta)


@dataclass(frozen=True)
class BalanceResult:
    R: float
    p1: float
    p2: float
    rates: RatePoint


def dominant_eigenpair(a):
    """Perron root and a nonnegative Perron vector of a 3x3 nonnegative matrix.

    The root is the eigenvalue of largest real part.  ``(mu I - a)^-1`` is
    entrywise nonnegative for any ``mu`` above it, so two inverse-iteration
    steps from the all-ones vector at a shift just above the root give a
    nonnegative eigenvector, also for a repeated root (reducible matrices).
    It is scaled to last entry 1 when that entry is nonzero, otherwise to
    unit norm.  The zero matrix gives the root 0 and the all-ones vector.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValidationError(f"expected 3x3 matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    if (a < 0).any():
        raise ValidationError("matrix must be entrywise nonnegative")
    scale = float(a.max())
    if scale == 0.0:
        return 0.0, np.ones(3)
    b = a / scale
    lam = max(float(np.linalg.eigvals(b).real.max()), 0.0)
    inv = np.linalg.inv((lam + 1e-12 * (lam or 1.0)) * np.eye(3) - b)
    v = inv @ inv.sum(axis=1)
    v = np.maximum(v / v[np.argmax(np.abs(v))], 0.0)
    if v[2] > 1e-12:
        return lam * scale, v / v[2]
    return lam * scale, v / np.linalg.norm(v)


def _balance_matrix(ch: SimoChannel, profile: RateProfile, R: float, p, i: int):
    """Extended 3x3 coupling matrix at the current powers, with user ``i``'s
    power constraint in its last row."""
    w1 = mmse_filter(ch, 1, p[1])
    w2 = mmse_filter(ch, 2, p[0])
    targets = (2.0 ** (profile.rho1 * R) - 1.0, 2.0 ** (profile.rho2 * R) - 1.0)
    d = []
    for k, w in ((1, w1), (2, w2)):
        gain = abs(np.vdot(w, ch.direct(k))) ** 2
        d.append(targets[k - 1] / gain)
    psi = np.array(
        [
            [0.0, d[0] * abs(np.vdot(w1, ch.h12)) ** 2],
            [d[1] * abs(np.vdot(w2, ch.h21)) ** 2, 0.0],
        ]
    )
    sigma = np.array(
        [d[0] * np.vdot(w1, w1).real, d[1] * np.vdot(w2, w2).real]
    )
    pk = ch.power(i)
    a = np.zeros((3, 3))
    a[:2, :2] = psi
    a[:2, 2] = sigma
    a[2, :2] = psi[i - 1] / pk
    a[2, 2] = sigma[i - 1] / pk
    return a


def _single_user_gamma(ch: SimoChannel, k: int, target: float):
    """Feasibility margin when only user ``k`` has a nonzero rate target."""
    if target <= 0.0:
        return GAMMA_CAP, (0.0, 0.0)
    gamma = ch.power(k) * _proper_gains(ch)[0][k - 1] / target
    powers = (ch.power(1), 0.0) if k == 1 else (0.0, ch.power(2))
    return gamma, powers


def _gamma_powers(ch: SimoChannel, profile: RateProfile, R: float):
    """Feasibility margin for targets ``rho_k * R`` plus achieving powers, by
    the Schubert--Boche filter/Perron fixed point: the independent check on
    :func:`balance_pure_proper`, which does not call it."""
    if R <= 0.0:
        return GAMMA_CAP, (0.0, 0.0)
    if profile.rho2 == 0.0:
        return _single_user_gamma(ch, 1, 2.0 ** (profile.rho1 * R) - 1.0)
    if profile.rho1 == 0.0:
        return _single_user_gamma(ch, 2, 2.0 ** (profile.rho2 * R) - 1.0)
    g = _proper_gains(ch)[0]
    if ch.p1 * g[0] == 0.0 or ch.p2 * g[1] == 0.0:
        return 0.0, (0.0, 0.0)  # a weighted user can reach no rate

    budget = np.array([ch.p1, ch.p2])
    for i in (1, 2):
        p = np.zeros(2)
        lam_prev = None
        lam = 0.0
        converged = False
        for _ in range(_FP_MAX_ITER):
            a = _balance_matrix(ch, profile, R, p, i)
            lam, v = dominant_eigenpair(a)
            if lam <= 0.0 or abs(v[2]) < 1e-12:
                raise ConvergenceError(
                    "balance fixed point degenerated (zero eigenvalue)"
                )
            p = v[:2]
            if lam_prev is not None and abs(lam - lam_prev) <= FP_TOL * max(
                1.0, abs(lam)
            ):
                converged = True
                break
            lam_prev = lam
        if not converged:
            raise ConvergenceError(
                f"filter/eigenpair fixed point did not converge (i={i}, R={R})"
            )
        if (p <= budget * (1.0 + 1e-9) + 1e-12).all():
            return 1.0 / lam, (float(p[0]), float(p[1]))
    raise ConvergenceError(
        "neither power constraint yields admissible balancing powers"
    )


def gamma_of_R(ch: SimoChannel, profile: RateProfile, R: float) -> float:
    """Largest common SINR margin for the rate targets ``rho_k * R``.

    Values >= 1 mean the targets are feasible; nonincreasing in ``R``.  It
    is the Schubert--Boche fixed point, kept as a feasibility test that
    shares no code path with the edge root of :func:`balance_pure_proper`.
    ``R = 0`` reports :data:`GAMMA_CAP`.  If a user with a positive weight
    can reach no rate (a dead direct link or a zero budget), it is 0.
    """
    gamma, _ = _gamma_powers(ch, profile, R)
    return gamma


def balance_pure_proper(
    ch: SimoChannel, profile: RateProfile, eps: float = 1e-8
) -> BalanceResult:
    """Solve the rate balancing problem by one root on a full-power edge.

    The corner ``(P1, P2)`` picks the edge.  Along it the full-power user's
    scaled rate ``u = r_k / rho_k`` falls and the other's ``v`` rises, so
    ``u - v`` has one root, found by Illinois steps on a sign bracket
    ``[a, b]``.  ``R`` is at most ``min(u(a), v(b))`` and at least the best
    ``min(u, v)`` evaluated; once the two are within ``eps`` the powers of
    the lower one are returned, and their rates meet ``rho_k * R``.  If a
    user with a positive weight can reach no rate (a dead direct link or a
    zero power budget), the balanced point is ``R = 0`` at zero powers.
    """
    validate_channel(ch)
    validate_eps(eps)

    # Degenerate single-user profiles need no root.
    if profile.rho2 == 0.0 or profile.rho1 == 0.0:
        k = 1 if profile.rho2 == 0.0 else 2
        powers = (ch.p1, 0.0) if k == 1 else (0.0, ch.p2)
        rates = rate_proper(ch, *powers)
        return BalanceResult(R=rates[k - 1], p1=powers[0], p2=powers[1], rates=rates)
    gains = _proper_gains(ch)
    if ch.p1 * gains[0][0] == 0.0 or ch.p2 * gains[0][1] == 0.0:
        return BalanceResult(R=0.0, p1=0.0, p2=0.0, rates=RatePoint(0.0, 0.0))

    rho = (profile.rho1, profile.rho2)
    corner = (ch.p1, ch.p2)
    r1, r2 = _proper_rates(gains, *corner)
    k = 0 if rho[1] * r1 - rho[0] * r2 <= 0.0 else 1  # the full-power user

    def scaled(t):  # powers with the other user at t, then u and v
        p = list(corner)
        p[1 - k] = t
        r = _proper_rates(gains, *p)
        return p, float(r[k] / rho[k]), float(r[1 - k] / rho[1 - k])

    # Bracket [a, b]: gap g = u - v > 0 at a (v(0) = 0), g <= 0 at b.
    (_, ua, va), (best, ub, vb) = scaled(0.0), scaled(corner[1 - k])
    a, b, ga, gb = 0.0, corner[1 - k], ua - va, ub - vb
    lower, side = min(ub, vb), 0
    for _ in range(_ROOT_MAX_STEPS):
        if min(ua, vb) - lower <= eps:
            break
        t = b - gb * (b - a) / (gb - ga)
        if not a < t < b:
            t = 0.5 * (a + b)
        p, u, v = scaled(t)
        if min(u, v) > lower:
            lower, best = min(u, v), p
        if u - v > 0.0:
            a, ua, ga = t, u, u - v
            gb = 0.5 * gb if side == 1 else gb  # Illinois: damp the kept end
            side = 1
        else:
            b, vb, gb = t, v, u - v
            ga = 0.5 * ga if side == -1 else ga
            side = -1
    else:
        raise ConvergenceError("the balancing edge root did not converge")
    return BalanceResult(
        R=lower, p1=best[0], p2=best[1], rates=rate_proper(ch, *best)
    )
