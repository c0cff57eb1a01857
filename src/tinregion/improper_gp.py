"""Weighted sum rate maximization with improper signals.

Works in the composite real representation: each user's transmit state is a
2x2 real PSD matrix with trace bounded by the power budget.  A projected
gradient ascent with a shrinking step size climbs the (nonconvex) weighted
sum rate; multiple random improper initializations are kept to improve the
odds of hitting the global optimum.  Starting from exactly proper matrices
the iteration never leaves the proper set, which is why improper
initialization is mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    SimoChannel,
    composite_cov_from_strategy,
    composite_real_embed,
    check_composite_cov,
    validate_channel,
)
from .errors import ValidationError
from .rates import RatePoint, rate_composite

__all__ = [
    "GpResult",
    "wsr_objective",
    "wsr_gradient",
    "project_psd_trace",
    "gradient_projection",
    "multistart",
    "random_improper_init",
]

_LN2 = float(np.log(2.0))
GP_EPS = 1e-8
GP_MAX_ITER = 5000
_MAX_BACKOFF = 2000


@dataclass(frozen=True)
class GpResult:
    m1: np.ndarray
    m2: np.ndarray
    W: float
    rates: RatePoint
    converged: bool


class _CompositeChannel:
    """Pre-embedded channel matrices shared across iterations."""

    def __init__(self, ch: SimoChannel):
        self.e11 = composite_real_embed(ch.h11)
        self.e12 = composite_real_embed(ch.h12)
        self.e21 = composite_real_embed(ch.h21)
        self.e22 = composite_real_embed(ch.h22)
        self.n1 = self.e11.shape[0]
        self.n2 = self.e22.shape[0]

    def covariances(self, m1, m2):
        cs1 = self.e12 @ m2 @ self.e12.T + 0.5 * np.eye(self.n1)
        cy1 = self.e11 @ m1 @ self.e11.T + cs1
        cs2 = self.e21 @ m1 @ self.e21.T + 0.5 * np.eye(self.n2)
        cy2 = self.e22 @ m2 @ self.e22.T + cs2
        return cy1, cs1, cy2, cs2

    def objective(self, m1, m2, w1, w2):
        cy1, cs1, cy2, cs2 = self.covariances(m1, m2)
        r1 = 0.5 * np.log2(np.linalg.det(cy1) / np.linalg.det(cs1))
        r2 = 0.5 * np.log2(np.linalg.det(cy2) / np.linalg.det(cs2))
        return w1 * max(r1, 0.0) + w2 * max(r2, 0.0), RatePoint(
            max(r1, 0.0), max(r2, 0.0)
        )

    def gradients(self, m1, m2, w1, w2):
        cy1, cs1, cy2, cs2 = self.covariances(m1, m2)
        iy1 = np.linalg.inv(cy1)
        is1 = np.linalg.inv(cs1)
        iy2 = np.linalg.inv(cy2)
        is2 = np.linalg.inv(cs2)
        g1 = (w1 / (2 * _LN2)) * self.e11.T @ iy1 @ self.e11 + (
            w2 / (2 * _LN2)
        ) * self.e21.T @ (iy2 - is2) @ self.e21
        g2 = (w2 / (2 * _LN2)) * self.e22.T @ iy2 @ self.e22 + (
            w1 / (2 * _LN2)
        ) * self.e12.T @ (iy1 - is1) @ self.e12
        return 0.5 * (g1 + g1.T), 0.5 * (g2 + g2.T)


def wsr_objective(ch: SimoChannel, m1, m2, w1: float, w2: float) -> float:
    """Weighted sum of the composite-real rates."""
    if w1 < 0 or w2 < 0:
        raise ValidationError("weights must be nonnegative")
    r = rate_composite(ch, m1, m2)
    return w1 * r.r1 + w2 * r.r2


def wsr_gradient(ch: SimoChannel, m1, m2, w) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the weighted sum rate w.r.t. each composite covariance.

    Own-link term plus the (negative semidefinite) cross term through the
    other receiver's interference covariance; matches central finite
    differences of :func:`wsr_objective`.
    """
    m1 = check_composite_cov(m1)
    m2 = check_composite_cov(m2)
    return _CompositeChannel(ch).gradients(m1, m2, float(w[0]), float(w[1]))


def project_psd_trace(m, p: float) -> np.ndarray:
    """Nearest PSD matrix with trace exactly ``p`` (Frobenius distance).

    Water-filling on the eigenvalues: shift all by a common level (possibly
    negative), clip at zero, so the surviving eigenvalues sum to ``p``.
    A zero target (a zero power budget) clips every eigenvalue to zero.
    """
    if p < 0:
        raise ValidationError("trace target must be nonnegative")
    arr = np.asarray(m, dtype=float)
    arr = 0.5 * (arr + arr.T)
    xi, omega = np.linalg.eigh(arr)
    xi = xi[::-1].copy()
    omega = omega[:, ::-1]
    n = len(xi)
    zeta = xi[0] - p  # single active eigenvalue
    for k in range(1, n + 1):
        level = (xi[:k].sum() - p) / k
        if xi[k - 1] - level > 0 and (k == n or xi[k] - level <= 0):
            zeta = level
            break
    vals = np.clip(xi - zeta, 0.0, None)
    return (omega * vals) @ omega.T


def random_improper_init(
    ch: SimoChannel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random strictly-improper starting point within the power budgets."""
    mats = []
    for p in (ch.p1, ch.p2):
        c = p * (1.0 - rng.uniform())  # in (0, p]
        mag = c * (0.5 + 0.5 * (1.0 - rng.uniform()))  # in (0.5 c, c]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mats.append(composite_cov_from_strategy(c, mag * np.exp(1j * phase)))
    return mats[0], mats[1]


def gradient_projection(
    ch: SimoChannel,
    w,
    init: tuple[np.ndarray, np.ndarray],
    eps: float = GP_EPS,
    max_iter: int = GP_MAX_ITER,
) -> GpResult:
    """Projected gradient ascent with step size ``1/s`` and integer backoff.

    The accepted-iterate objective sequence is nondecreasing; iteration
    stops when an accepted step improves the objective by at most ``eps``.
    Hitting the iteration cap returns the best iterate flagged as not
    converged.
    """
    validate_channel(ch)
    w1, w2 = float(w[0]), float(w[1])
    comp = _CompositeChannel(ch)
    m1 = check_composite_cov(init[0])
    m2 = check_composite_cov(init[1])
    obj, rates = comp.objective(m1, m2, w1, w2)
    s = 1
    for _ in range(max_iter):
        g1, g2 = comp.gradients(m1, m2, w1, w2)
        # shrink the step until the candidate does not decrease the objective
        for _ in range(_MAX_BACKOFF):
            c1 = project_psd_trace(m1 + (1.0 / s) * g1, ch.p1)
            c2 = project_psd_trace(m2 + (1.0 / s) * g2, ch.p2)
            cobj, crates = comp.objective(c1, c2, w1, w2)
            if cobj - obj >= 0.0:
                break
            s += 1
        else:
            return GpResult(m1, m2, obj, rates, converged=False)
        improved = cobj - obj
        m1, m2, obj, rates = c1, c2, cobj, crates
        if improved <= eps:
            return GpResult(m1, m2, obj, rates, converged=True)
    return GpResult(m1, m2, obj, rates, converged=False)


def multistart(
    ch: SimoChannel,
    w,
    n_starts: int = 20,
    seed: int = 0,
    eps: float = GP_EPS,
) -> tuple[GpResult, list[GpResult]]:
    """Run :func:`gradient_projection` from ``n_starts`` random improper
    initializations and keep the best; deterministic given ``seed``."""
    if n_starts < 1:
        raise ValidationError("need at least one start")
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_starts):
        init = random_improper_init(ch, rng)
        results.append(gradient_projection(ch, w, init, eps=eps))
    best = max(results, key=lambda r: r.W)
    return best, results
