"""Weighted sum rate maximization with improper signals.

Works in the composite real representation: each user's transmit state is a
2x2 real PSD matrix with trace at most the power budget.  A spectral
projected gradient ascent (Barzilai-Borwein steps under a nonmonotone line
search, after Birgin, Martinez and Raydan) climbs the (nonconvex) weighted
sum rate from random improper starts and from the proper optimum, and stops
on a stationarity residual relative to the budgets.  The starts ascend in
lockstep as stacked ``(S, 2, 2, 2)`` arrays, and the projection onto the
power set is a closed form for 2x2 matrices.  From exactly proper matrices
the iteration never leaves the proper set, which is why the other starts
are improper.
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
# stop once ||proj(M + G) - M|| <= GP_EPS max(P1, P2); the absolute-gain stop
# this replaced left fig1 and fig3 at residuals of 1.4e-6 P or less
GP_EPS = 1e-6
GP_MAX_ITER = 5000
_WINDOW = 10  # nonmonotone memory: the last W values a move is tested against
_ARMIJO = 1e-4  # share of its first-order gain lam <G, d> that a move must make
_STEP_MIN, _STEP_MAX = 1e-10, 1e10  # bounds on the spectral step
_MIN_LAM = 1e-12  # a start whose backtracking falls below this stops


@dataclass(frozen=True)
class GpResult:
    m1: np.ndarray
    m2: np.ndarray
    W: float
    rates: RatePoint
    converged: bool  # stopped on the residual test at m1, m2, its last iterate
    residual: float | None = None  # ||proj(M + G) - M|| over both users at m1, m2


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

    def evaluate(self, x, w):
        """Covariances ``cy1, cs1, cy2, cs2`` ``(4, S, n, n)``, clipped rates
        ``(2, S)`` and objectives ``(S,)`` of the stack ``x`` ``(S, 2, 2, 2)``
        of both users' matrices."""
        cov = self.e @ x[:, [0, 1, 1, 0]].swapaxes(0, 1) @ self.e.swapaxes(2, 3)
        cov[1::2] += self.noise
        cov[::2] += cov[1::2]
        d = np.linalg.det(cov)
        r = np.maximum(0.5 * np.log2(d[::2] / d[1::2]), 0.0)
        return cov, r, w[0] * r[0] + w[1] * r[1]

    def gradients(self, cov, w):
        """Symmetric gradients ``(S, 2, 2, 2)`` of the weighted sum rate at
        the points whose covariances from :meth:`evaluate` are ``cov``."""
        x = np.linalg.inv(cov)
        x[1::2] = x[::2] - x[1::2]  # iy1, iy1 - is1, iy2, iy2 - is2
        t = self.e.swapaxes(2, 3) @ x @ self.e
        c1, c2 = w / (2 * _LN2)
        g = np.stack([c1 * t[0] + c2 * t[3], c2 * t[2] + c1 * t[1]], axis=1)
        return 0.5 * (g + g.swapaxes(2, 3))


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
    g = comp.gradients(comp.evaluate(np.stack([m1, m2])[None], w)[0], w)
    return g[0, 0], g[0, 1]


def project_psd_trace(m, p) -> np.ndarray:
    """Nearest PSD matrix with trace at most ``p`` (Frobenius distance), for
    one symmetric 2x2 matrix or a ``(..., 2, 2)`` stack of them.  ``p`` is one
    budget or an array of them that broadcasts to the stack's shape ``(...)``.

    Closed form on the eigenvalues ``a ± r`` (``a`` half the trace, ``r``
    half the eigenvalue gap): clip both at zero, and only when the clipped
    sum is over ``p`` water-fill down to it, which gives ``p/2 ± min(r, p/2)``.
    The result keeps the eigenvectors, so it is ``l I + t D`` with ``D`` the
    traceless part of the matrix.  A zero budget gives the zero matrix.
    """
    arr = np.asarray(m, dtype=float)
    if arr.shape[-2:] != (2, 2):
        raise ValidationError(f"expected 2x2 matrices, got shape {arr.shape}")
    try:
        p = np.broadcast_to(np.asarray(p, dtype=float), arr.shape[:-2])
    except ValueError:
        raise ValidationError(f"trace targets {p!r} do not fit matrices {arr.shape}") from None
    if not np.all(p >= 0):
        raise ValidationError("trace target must be nonnegative")
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


def _inner(a, b):
    """Inner products of the ``(S, 2, 2, 2)`` stacks, over both users."""
    return (a * b).sum(axis=(1, 2, 3))


def _norm(x):
    return np.sqrt(_inner(x, x))


def _ascend(ch: SimoChannel, w, m1, m2, eps: float, max_iter: int) -> list[GpResult]:
    """Spectral projected gradient from every start of the stacks ``m1, m2``
    in lockstep; each round computes only the live starts.

    A start at ``M`` with gradient ``G`` and spectral step ``alpha`` takes the
    direction ``d = proj(M + alpha G) - M``; the same projection call gives
    its stationarity residual ``||proj(M + G) - M||``.  It stops converged
    once that is at most ``eps max(P1, P2)``, and unconverged after
    ``max_iter`` moves.  Otherwise it backtracks, halving ``lam`` from 1,
    until ``W(M + lam d)`` exceeds the least of its last ``_WINDOW`` values
    by ``1e-4 lam <G, d>`` (the nonmonotone test of Grippo, Lampariello and
    Lucidi), and stops unconverged once ``lam`` is below 1e-12.  A move by
    ``s`` that changes the gradient by ``y`` sets the next ``alpha`` to
    ``s.s / -s.y`` after odd moves and ``-s.y / y.y`` after even ones
    (Barzilai and Borwein), clipped to ``[1e-10, 1e10]``, and to 1e10 when
    ``-s.y <= 0``.  Every start returns its best iterate; one that becomes
    stationary below it restarts from it with a unit step and a fresh
    window, so a converged start's best iterate is its last."""
    comp = _CompositeChannel(ch)
    budget = np.array([ch.p1, ch.p2])
    tol = eps * budget.max()
    x = np.stack([m1, m2], axis=1)  # (S, user, 2, 2)
    cov, _, obj = comp.evaluate(x, w)
    g = comp.gradients(cov, w)
    n = len(x)
    best, best_g, best_obj = x.copy(), g.copy(), obj.copy()
    window = np.repeat(obj[:, None], _WINDOW, axis=1)
    d, alpha, lam, slope = np.zeros_like(x), np.ones(n), np.ones(n), np.zeros(n)
    moves, converged = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    live = np.arange(n)
    while live.size:
        # a fresh start tries proj(M + alpha G) and measures its residual; a
        # backtracking one tries M + lam d
        fresh = lam[live] == 1.0
        k = live[fresh]
        step = np.where(fresh, alpha[live], lam[live])[:, None, None, None]
        trial = x[live] + step * np.where(fresh[:, None, None, None], g[live], d[live])
        c = project_psd_trace(np.concatenate([trial, x[k] + g[k]]), budget)
        c, done = c[:len(live)], _norm(c[len(live):] - x[k]) <= tol
        d[k] = c[fresh] - x[k]
        slope[k] = _ARMIJO * _inner(g[k], d[k])
        behind = done & (obj[k] < best_obj[k])  # stationary below the best: restart
        if behind.any():
            j = k[behind]
            x[j], g[j], obj[j], alpha[j] = best[j], best_g[j], best_obj[j], 1.0
            window[j] = best_obj[j, None]
            done &= ~behind
        converged[k] = done
        keep, wait = np.ones(len(live), dtype=bool), np.zeros(len(live), dtype=bool)
        keep[fresh], wait[fresh] = ~done & (moves[k] < max_iter), behind
        tried, c = live[keep & ~wait], c[keep & ~wait]
        live = live[keep]
        if not tried.size:
            continue
        cov, _, cobj = comp.evaluate(c, w)
        acc = cobj >= window[tried].min(axis=1) + lam[tried] * slope[tried]
        lam[tried] *= 0.5
        moved, c, cobj = tried[acc], c[acc], cobj[acc]
        if moved.size:
            cg = comp.gradients(cov[:, acc], w)
            s, y = c - x[moved], cg - g[moved]
            sy = -_inner(s, y)
            pos = sy > 0
            moves[moved] += 1
            bb = np.where(moves[moved] % 2 == 1, _inner(s, s) / np.where(pos, sy, 1.0),
                          sy / np.where(pos, _inner(y, y), 1.0))
            alpha[moved] = np.where(pos, np.clip(bb, _STEP_MIN, _STEP_MAX), _STEP_MAX)
            x[moved], g[moved], obj[moved], lam[moved] = c, cg, cobj, 1.0
            window[moved, moves[moved] % _WINDOW] = cobj
            up = cobj > best_obj[moved]
            best[moved[up]], best_g[moved[up]], best_obj[moved[up]] = c[up], cg[up], cobj[up]
        live = live[lam[live] >= _MIN_LAM]
    _, rates, obj = comp.evaluate(best, w)
    residual = _norm(project_psd_trace(best + best_g, budget) - best)
    return [GpResult(best[i, 0], best[i, 1], float(obj[i]), RatePoint(*map(float, rates[:, i])),
                     bool(converged[i]), float(residual[i])) for i in range(n)]


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
    """Spectral projected gradient ascent on ``{M PSD, trace M <= P}``.

    The step alternates the two Barzilai-Borwein formulas, starting at 1;
    a move along ``d = proj(M + alpha G) - M`` is accepted by a nonmonotone
    Armijo test against the least ``W`` of the last 10 iterates, halving
    the move until it passes.  Iteration stops converged once the
    stationarity residual ``||proj(M + G) - M||`` over both users is at
    most ``eps max(P1, P2)``; ``max_iter`` moves, or a move halved below
    1e-12, stop it unconverged.  A point that passes the residual test
    below the best iterate restarts the ascent from the best one.  The
    result is the best iterate, so ``W`` is never below the initial
    point's; ``residual`` is measured there.  This is the engine of :func:`multistart` on a batch of one start.
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
    5% improper copy of it; keep the best.  Every start returns its best
    iterate, so the best ``W`` is at least the proper optimum.  Each start
    ends as it would alone, so the ``n_starts + 2`` results do not depend on
    ``n_starts``."""
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
