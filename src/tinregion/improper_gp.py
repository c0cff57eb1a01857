"""Weighted sum rate maximization with improper signals.

Works in the composite real representation: each user's transmit state is a
2x2 real PSD matrix with trace at most the power budget.  A projected
gradient ascent with per-start adaptive steps climbs the (nonconvex)
weighted sum rate from random improper starts and from the proper optimum;
the starts ascend in lockstep as stacked ``(S, 2, 2)`` arrays, and the
projection onto the power set is a closed form for 2x2 matrices.  From
exactly proper matrices the iteration never leaves the proper set, which is
why the other starts are improper.
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
    validate_eps,
)
from .errors import ValidationError
from .rates import RatePoint, _proper_gains, rate_composite
from .timesharing import _InnerProblem

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
_MIN_STEP = 1e-12
_ARMIJO = 0.5  # share of its first-order gain <G, D> that a move D must make


@dataclass(frozen=True)
class GpResult:
    m1: np.ndarray
    m2: np.ndarray
    W: float
    rates: RatePoint
    converged: bool
    residual: float | None = None  # ||proj(M + G) - M|| over both users


class _CompositeChannel:
    """Pre-embedded channel matrices shared across iterations.  Receivers
    are zero-padded to a common real dimension: a padded coordinate holds
    only noise, which scales both determinants of a rate alike and adds
    nothing to the gradients."""

    def __init__(self, ch: SimoChannel):
        # the links through which m1, m2, m2, m1 reach cy1, cs1, cy2, cs2
        e = [composite_real_embed(h) for h in (ch.h11, ch.h12, ch.h22, ch.h21)]
        n = max(len(x) for x in e)
        self.e = np.stack([np.pad(x, [(0, n - len(x)), (0, 0)]) for x in e])[:, None]
        self.noise = 0.5 * np.eye(n)

    def evaluate(self, m1, m2, w):
        """Covariances ``cy1, cs1, cy2, cs2`` ``(4, S, n, n)``, clipped rates
        ``(2, S)`` and objectives ``(S,)`` of the stacks ``m1, m2``."""
        cov = self.e @ np.stack([m1, m2, m2, m1]) @ self.e.swapaxes(2, 3)
        cov[1::2] += self.noise
        cov[::2] += cov[1::2]
        d = np.linalg.det(cov)
        r = np.maximum(0.5 * np.log2(d[::2] / d[1::2]), 0.0)
        return cov, r, w[0] * r[0] + w[1] * r[1]

    def gradients(self, cov, w):
        """Symmetric gradients ``(S, 2, 2)`` of the weighted sum rate at the
        points whose covariances from :meth:`evaluate` are ``cov``."""
        x = np.linalg.inv(cov)
        x[1::2] = x[::2] - x[1::2]  # iy1, iy1 - is1, iy2, iy2 - is2
        t = self.e.swapaxes(2, 3) @ x @ self.e
        c1, c2 = w / (2 * _LN2)
        g1 = c1 * t[0] + c2 * t[3]
        g2 = c2 * t[2] + c1 * t[1]
        return 0.5 * (g1 + g1.swapaxes(1, 2)), 0.5 * (g2 + g2.swapaxes(1, 2))


def _weights(w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.shape != (2,) or not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValidationError(f"weights must be two finite nonnegative numbers: {w!r}")
    return arr


def wsr_objective(ch: SimoChannel, m1, m2, w1: float, w2: float) -> float:
    """Weighted sum of the composite-real rates."""
    w1, w2 = _weights((w1, w2))
    r = rate_composite(ch, m1, m2)
    return w1 * r.r1 + w2 * r.r2


def wsr_gradient(ch: SimoChannel, m1, m2, w) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the weighted sum rate w.r.t. each composite covariance.

    Own-link term plus the (negative semidefinite) cross term through the
    other receiver's interference covariance; matches central finite
    differences of :func:`wsr_objective`.
    """
    w = _weights(w)
    m1 = check_composite_cov(m1)
    m2 = check_composite_cov(m2)
    comp = _CompositeChannel(ch)
    g1, g2 = comp.gradients(comp.evaluate(m1[None], m2[None], w)[0], w)
    return g1[0], g2[0]


def project_psd_trace(m, p: float) -> np.ndarray:
    """Nearest PSD matrix with trace at most ``p`` (Frobenius distance), for
    one symmetric 2x2 matrix or a ``(..., 2, 2)`` stack of them.

    Closed form on the eigenvalues ``a ± r`` (``a`` half the trace, ``r``
    half the eigenvalue gap): clip both at zero, and only when the clipped
    sum is over ``p`` water-fill down to it, which gives ``p/2 ± min(r, p/2)``.
    The result keeps the eigenvectors, so it is ``l I + t D`` with ``D`` the
    traceless part of the matrix.  A zero budget gives the zero matrix.
    """
    if not p >= 0:
        raise ValidationError("trace target must be nonnegative")
    arr = np.asarray(m, dtype=float)
    if arr.shape[-2:] != (2, 2):
        raise ValidationError(f"expected 2x2 matrices, got shape {arr.shape}")
    mid = 0.5 * (arr[..., 0, 0] + arr[..., 1, 1])
    half = 0.5 * (arr[..., 0, 0] - arr[..., 1, 1])
    off = 0.5 * (arr[..., 0, 1] + arr[..., 1, 0])
    r = np.hypot(half, off)
    hi, lo = np.maximum(mid + r, 0.0), np.maximum(mid - r, 0.0)
    over = hi + lo > p
    k = np.minimum(r, 0.5 * p)
    hi, lo = np.where(over, 0.5 * p + k, hi), np.where(over, 0.5 * p - k, lo)
    t = np.divide(hi - lo, 2.0 * r, out=np.zeros_like(r), where=r > 0)
    out = np.empty(arr.shape)
    out[..., 0, 0] = 0.5 * (hi + lo) + t * half
    out[..., 1, 1] = 0.5 * (hi + lo) - t * half
    out[..., 0, 1] = out[..., 1, 0] = t * off
    return out


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


def _ascend(ch: SimoChannel, w, m1, m2, eps: float, max_iter: int) -> list[GpResult]:
    """Ascent from every start of the stacks ``m1, m2`` in lockstep; each
    round computes only the live starts.  A start tries ``proj(m + step g)``
    and moves there if that gains at least half the first-order gain
    ``<g, move>``; it then doubles its step and stops converged on a gain
    ``<= eps`` or unconverged after ``max_iter`` moves.  Otherwise it halves
    its step and stops unconverged once the step is below 1e-12."""
    comp = _CompositeChannel(ch)
    m1, m2 = m1.copy(), m2.copy()
    cov, rates, obj = comp.evaluate(m1, m2, w)
    g1, g2 = comp.gradients(cov, w)
    step, moves = np.ones(len(m1)), np.zeros(len(m1), dtype=int)
    converged = np.zeros(len(m1), dtype=bool)
    live = np.arange(len(m1) if max_iter > 0 else 0)
    while live.size:
        s = step[live, None, None]
        c1 = project_psd_trace(m1[live] + s * g1[live], ch.p1)
        c2 = project_psd_trace(m2[live] + s * g2[live], ch.p2)
        cov, crates, cobj = comp.evaluate(c1, c2, w)
        gain = cobj - obj[live]
        pred = ((c1 - m1[live]) * g1[live] + (c2 - m2[live]) * g2[live]).sum(axis=(1, 2))
        acc = gain >= _ARMIJO * pred
        moved = live[acc]
        step[live] *= np.where(acc, 2.0, 0.5)
        if moved.size:
            m1[moved], m2[moved] = c1[acc], c2[acc]
            rates[:, moved], obj[moved] = crates[:, acc], cobj[acc]
            g1[moved], g2[moved] = comp.gradients(cov[:, acc], w)
            moves[moved] += 1
            converged[moved] = gain[acc] <= eps
        live = live[~converged[live] & (moves[live] < max_iter) & (step[live] >= _MIN_STEP)]
    d = np.stack([project_psd_trace(m1 + g1, ch.p1) - m1, project_psd_trace(m2 + g2, ch.p2) - m2])
    residual = np.sqrt((d**2).sum(axis=(0, 2, 3)))
    return [GpResult(m1[i], m2[i], float(obj[i]), RatePoint(*map(float, rates[:, i])),
                     bool(converged[i]), float(residual[i])) for i in range(len(m1))]


def _proper_seed(ch: SimoChannel, w) -> tuple[float, float]:
    """Powers of the best proper weighted sum rate, which lies on one of the
    two full-power edges: the exact maximum over the other user's power on
    each edge, the time-sharing inner problem's with zero penalties."""
    prob = _InnerProblem(_proper_gains(ch), tuple(w), (0.0, 0.0))
    p1, v1 = prob.p1_max(np.array([ch.p2]), ch.p1)
    p2, v2 = prob.swapped().p1_max(np.array([ch.p1]), ch.p2)
    return (float(p1[0]), ch.p2) if v1[0] >= v2[0] else (ch.p1, float(p2[0]))


def gradient_projection(
    ch: SimoChannel,
    w,
    init: tuple[np.ndarray, np.ndarray],
    eps: float = GP_EPS,
    max_iter: int = GP_MAX_ITER,
) -> GpResult:
    """Projected gradient ascent on ``{M PSD, trace M <= P}`` with a step
    that starts at 1, doubles on an accepted move and halves on a rejected
    one (a move that gains less than half its first-order gain).

    The objective never falls; iteration stops converged when an accepted
    move gains at most ``eps``.  ``max_iter`` moves, or a step below 1e-12,
    return the last iterate flagged as not converged.  ``residual`` is the
    stationarity measure ``||proj(M + G) - M||`` at the returned point.
    This is the engine of :func:`multistart` on a batch of one start.
    """
    validate_channel(ch)
    validate_eps(eps)
    w = _weights(w)
    m1, m2 = (check_composite_cov(m) for m in init)
    for m, p in ((m1, ch.p1), (m2, ch.p2)):
        if np.trace(m) > p * (1 + 1e-9):
            raise ValidationError(f"initial trace {np.trace(m)!r} above budget {p}")
    return _ascend(ch, w, m1[None], m2[None], eps, max_iter)[0]


def multistart(
    ch: SimoChannel,
    w,
    n_starts: int = 20,
    seed: int = 0,
    eps: float = GP_EPS,
) -> tuple[GpResult, list[GpResult]]:
    """Run :func:`gradient_projection` as one lockstep batch from ``n_starts``
    random improper inits, drawn from a generator seeded with ``seed``, then
    from the proper weighted-sum-rate optimum on the full-power edges and a
    5% improper copy of it; keep the best.  The ascent is monotone, so the
    best ``W`` is at least the proper optimum.  Each start ends as it would
    alone, so the ``n_starts + 2`` results do not depend on ``n_starts``."""
    validate_channel(ch)
    validate_eps(eps)
    w = _weights(w)
    if not isinstance(n_starts, (int, np.integer)) or n_starts < 1:
        raise ValidationError(f"need a positive integer number of starts: {n_starts!r}")
    rng = np.random.default_rng(seed)
    inits = [random_improper_init(ch, rng) for _ in range(n_starts)]
    c = _proper_seed(ch, w)
    inits += [tuple(composite_cov_from_strategy(ck, f * ck) for ck in c) for f in (0.0, 0.05)]
    m1, m2 = (np.stack(m) for m in zip(*inits))
    results = _ascend(ch, w, m1, m2, eps, GP_MAX_ITER)
    best = max(results, key=lambda r: r.W)
    return best, results
