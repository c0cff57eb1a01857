"""Weighted sum rate maximization with improper signals.

Works in the composite real representation: each user's transmit state is a
2x2 real PSD matrix with trace bounded by the power budget.  A projected
gradient ascent with a shrinking step size climbs the (nonconvex) weighted
sum rate from multiple random improper initializations, which ascend in
lockstep as one stack of ``(S, 2, 2)`` arrays; the projection onto the power
budget is a closed form for 2x2 matrices.  Starting from exactly proper
matrices the iteration never leaves the proper set, which is why improper
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
    """Nearest PSD matrix with trace exactly ``p`` (Frobenius distance), for
    one symmetric 2x2 matrix or a ``(..., 2, 2)`` stack of them.

    Closed-form water-filling on the two eigenvalues.  With ``r`` half the
    eigenvalue gap, both survive a common shift by ``(p - tr)/2`` when
    ``2r <= p``; otherwise the result is ``p v v^T`` for the top eigenvector
    ``v``.  Both cases are ``p/2 I + t D``, where ``D`` is the traceless part
    of the matrix and ``t = min(1, p / 2r)``.  A zero target (a zero power
    budget) gives the zero matrix.
    """
    if not p >= 0:
        raise ValidationError("trace target must be nonnegative")
    arr = np.asarray(m, dtype=float)
    if arr.shape[-2:] != (2, 2):
        raise ValidationError(f"expected 2x2 matrices, got shape {arr.shape}")
    half = 0.5 * (arr[..., 0, 0] - arr[..., 1, 1])
    off = 0.5 * (arr[..., 0, 1] + arr[..., 1, 0])
    edge = np.maximum(2.0 * np.hypot(half, off), p)
    t = np.divide(p, edge, out=np.ones_like(edge), where=edge > 0)
    out = np.empty(arr.shape)
    out[..., 0, 0] = 0.5 * p + t * half
    out[..., 1, 1] = 0.5 * p - t * half
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
    """Ascent from every start of the stacks ``m1, m2`` in lockstep.  Each
    round every live start tries ``proj(m + g/s)``: it moves there if that
    does not lower its objective, and stops converged on a gain ``<= eps``
    or unconverged after ``max_iter`` moves; otherwise ``s += 1``, and it
    stops unconverged after ``_MAX_BACKOFF`` rejections in a row."""
    comp = _CompositeChannel(ch)
    m1, m2 = m1.copy(), m2.copy()
    cov, rates, obj = comp.evaluate(m1, m2, w)
    g1, g2 = comp.gradients(cov, w)
    s = np.ones(len(m1))
    backoff, steps = np.zeros((2, len(m1)), dtype=int)
    converged = np.zeros(len(m1), dtype=bool)
    live = np.full(len(m1), max_iter > 0)
    while live.any():
        step = (1.0 / s)[:, None, None]
        c1 = project_psd_trace(m1 + step * g1, ch.p1)
        c2 = project_psd_trace(m2 + step * g2, ch.p2)
        cov, crates, cobj = comp.evaluate(c1, c2, w)
        gain = cobj - obj
        acc = live & (gain >= 0.0)
        rej = live & ~acc
        s[rej] += 1
        backoff[rej] += 1
        backoff[acc] = 0
        steps[acc] += 1
        m1[acc], m2[acc] = c1[acc], c2[acc]
        rates[:, acc], obj[acc] = crates[:, acc], cobj[acc]
        converged |= acc & (gain <= eps)
        live &= ~converged & (steps < max_iter) & (backoff < _MAX_BACKOFF)
        more = acc & live
        if more.any():
            g1[more], g2[more] = comp.gradients(cov[:, more], w)
    return [GpResult(m1[i], m2[i], float(obj[i]), RatePoint(*map(float, rates[:, i])),
                     bool(converged[i])) for i in range(len(m1))]


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
    Hitting the iteration cap, or 2000 rejected steps in a row, returns the
    last accepted iterate flagged as not converged.  This is the lockstep
    engine of :func:`multistart` run on a batch of one start.
    """
    validate_channel(ch)
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
    """Run :func:`gradient_projection` from ``n_starts`` random improper
    initializations as one lockstep batch and keep the best.  All inits are
    drawn first from a generator seeded with ``seed``, and each start ends
    as it would alone, so results do not depend on ``n_starts``."""
    validate_channel(ch)
    w = _weights(w)
    if n_starts < 1:
        raise ValidationError("need at least one start")
    rng = np.random.default_rng(seed)
    inits = [random_improper_init(ch, rng) for _ in range(n_starts)]
    m1, m2 = (np.stack(m) for m in zip(*inits))
    results = _ascend(ch, w, m1, m2, eps, GP_MAX_ITER)
    best = max(results, key=lambda r: r.W)
    return best, results
