"""Weighted sum rate maximization with improper signals.

Works in the composite real representation: each user's transmit state is a
2x2 real PSD matrix with trace at most the power budget.  A spectral
projected gradient ascent (Barzilai-Borwein steps under a nonmonotone line
search, after Birgin, Martinez and Raydan) climbs the (nonconvex) weighted
sum rate from random improper starts and from the proper optimum, and stops
on a stationarity residual relative to the budgets.  Each start is one
scalar loop on the users' (variance, pseudovariance) pairs ``(c, ct)``,
whose matrices are ``M = (c I + S(ct)) / 2`` with ``S(ct) = [[Re ct, Im ct],
[Im ct, -Re ct]]``.  Each receiver's rate and its gradient come from the
closed-form kernel :func:`~tinregion.rates._receiver_rate` in these pairs,
and the projection onto the power set is a closed form on the
eigenvalues ``(c ± |ct|) / 2``.  From exactly proper matrices the iteration
never leaves the proper set, which is why the other starts are improper.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p, sqrt

import numpy as np

from .channel import (
    SimoChannel,
    _composite,
    _state,
    composite_cov_from_strategy,
    check_composite_cov,
    int_scalar,
    real_array,
    real_scalar,
    validate_channel,
    validate_eps,
)
from .errors import ValidationError
from .rates import _LN2, RatePoint, _proper_gains, _receiver_rate, _receivers
from .timesharing import _InnerProblem

# stop once ||proj(M + G) - M||, each user's part over its budget, is at most
# GP_EPS; the absolute-gain stop this replaced left fig1 and fig3 at 1.4e-6 or less
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
    residual: float | None = None  # ||proj(M + G) - M|| at m1, m2, per unit of budget


def _point(ks, w, x):
    """``W``, the rates and the gradient of ``W`` at the state ``x = (c1,
    ct1, c2, ct2)``.  The gradient is the state of the symmetric matrix
    gradient, so ``x + alpha G`` is the state of ``M + alpha G``."""
    c1, t1, c2, t2 = x
    q1, a1, b1, e1, f1 = _receiver_rate(ks[0], c1, t1, c2, t2)
    q2, a2, b2, e2, f2 = _receiver_rate(ks[1], c2, t2, c1, t1)
    r1, r2 = max(log1p(q1), 0.0) / (2.0 * _LN2), max(log1p(q2), 0.0) / (2.0 * _LN2)
    k1, k2 = w[0] / (_LN2 * (1.0 + q1)), w[1] / (_LN2 * (1.0 + q2))
    return (w[0] * r1 + w[1] * r2, (r1, r2),
            (k1 * a1 + k2 * e2, k1 * b1 + k2 * f2, k2 * a2 + k1 * e1, k2 * b2 + k1 * f1))


def _axpy(x, lam, d):
    return x[0] + lam * d[0], x[1] + lam * d[1], x[2] + lam * d[2], x[3] + lam * d[3]


def _dot(a, b):
    """Frobenius inner product of the matrices of two states: half the
    Euclidean one of ``(c1, ct1, c2, ct2)``."""
    return 0.5 * (a[0] * b[0] + a[2] * b[2] + (a[1] * b[1].conjugate()).real
                  + (a[3] * b[3].conjugate()).real)


def _weights(w) -> tuple[float, float]:
    try:
        arr = real_array("weights", w)
    except (TypeError, ValueError):  # strings, complex numbers or a ragged nesting
        arr = None
    if arr is None or arr.shape != (2,) or not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValidationError(f"weights must be two finite nonnegative numbers: {w!r}")
    return float(arr[0]), float(arr[1])


def wsr_gradient(ch: SimoChannel, m1, m2, w) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the weighted sum rate w.r.t. each composite covariance.

    Own-link term plus the (negative semidefinite) cross term through the
    other receiver's interference covariance, from the closed-form rate
    kernel; matches central finite differences of ``w1 r1 + w2 r2`` from
    :func:`~tinregion.rates.rate_composite`.
    """
    w = _weights(w)
    x = _state(check_composite_cov(m1)) + _state(check_composite_cov(m2))
    g = _point(_receivers(ch), w, x)[2]
    return _composite(g[0], g[1]), _composite(g[2], g[3])


def _project(c, ct, p):
    """The state of the nearest matrix to that of ``(c, ct)`` (Frobenius
    distance) that is PSD with trace at most ``p``.  The eigenvalues ``(c ±
    |ct|) / 2`` are clipped at zero and, only when their sum is then over
    ``p``, water-filled down to ``p/2 ± min(|ct|, p)/2``.  The eigenvectors,
    and so the phase of ``ct``, are kept; a zero budget gives ``(0, 0)``."""
    m = abs(ct)
    hi, lo = c + m, c - m  # twice the eigenvalues
    hi, lo = hi if hi > 0.0 else 0.0, lo if lo > 0.0 else 0.0
    if hi + lo > 2.0 * p:
        k = m if m < p else p
        hi, lo = p + k, p - k
    return 0.5 * (hi + lo), (ct * (0.5 * (hi - lo) / m) if m > 0 else 0j)


def project_psd_trace(m, p) -> np.ndarray:
    """Nearest PSD matrix with trace at most ``p`` (Frobenius distance) to one
    symmetric 2x2 matrix, by the gradient projection's closed form on its
    eigenvalues, which keeps the eigenvectors.  A zero budget gives the zero
    matrix.
    """
    arr = real_array("matrix", m)
    if arr.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not real_scalar("trace target", p) >= 0:
        raise ValidationError(f"trace target must be nonnegative, got {p}")
    return _composite(*_project(*_state(arr), float(p)))


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


def _ascend(ks, w, budget, x, eps: float, max_iter: int) -> GpResult:
    """Spectral projected gradient from the state ``x`` of :func:`_point`.

    At ``M`` with gradient ``G`` and spectral step ``alpha`` the direction is
    ``d = proj(M + alpha G) - M``.  The start stops converged once
    ``||proj(M + G) - M||``, each user's part over its budget (0 at a zero
    budget), is at most ``eps``, and unconverged after ``max_iter`` moves.
    Otherwise it backtracks, halving ``lam`` from 1, until ``W(M + lam d)``
    exceeds the least of its last ``_WINDOW`` values by ``1e-4 lam <G, d>``
    (the nonmonotone test of Grippo, Lampariello and Lucidi), and stops
    unconverged once ``lam`` is below 1e-12.  A move by
    ``s`` that changes the gradient by ``y`` sets the next ``alpha`` to
    ``s.s / -s.y`` after odd moves and ``-s.y / y.y`` after even ones
    (Barzilai and Borwein), clipped to ``[1e-10, 1e10]``, and to 1e10 when
    ``-s.y <= 0``.  The start returns its best iterate; one that becomes
    stationary below it restarts from it with a unit step and a fresh window,
    so a converged start returns its last iterate, which ties the best."""
    p1, p2 = budget
    u1, u2 = (1.0 / (p * p) if p > 0 else 0.0 for p in budget)

    def toward(y, lam, d):  # the state of proj(M + lam D) - M
        c1, t1 = _project(y[0] + lam * d[0], y[1] + lam * d[1], p1)
        c2, t2 = _project(y[2] + lam * d[2], y[3] + lam * d[3], p2)
        return c1 - y[0], t1 - y[1], c2 - y[2], t2 - y[3]

    def residual(r):  # the norm of r with each user's part in units of its budget
        return sqrt(_dot(r, (u1 * r[0], u1 * r[1], u2 * r[2], u2 * r[3])))

    obj, rates, g = _point(ks, w, x)
    best = x, obj, rates, g
    window, alpha, moves, converged = [obj] * _WINDOW, 1.0, 0, False
    while True:
        if residual(toward(x, 1.0, g)) <= eps:
            if obj >= best[1]:  # a tie too: the last iterate is the one that passed
                best, converged = (x, obj, rates, g), True
                break
            x, obj, rates, g = best  # stationary below the best iterate: restart
            window, alpha = [obj] * _WINDOW, 1.0
            continue
        if moves >= max_iter:
            break
        d = toward(x, alpha, g)
        floor, slope, lam = min(window), _ARMIJO * _dot(g, d), 1.0
        while True:
            y = _axpy(x, lam, d)
            yobj, yrates, yg = _point(ks, w, y)
            if yobj >= floor + lam * slope:
                break
            lam *= 0.5
            if lam < _MIN_LAM:
                break
        if lam < _MIN_LAM:
            break  # no move passes the test
        s, v = _axpy(y, -1.0, x), _axpy(yg, -1.0, g)
        sy, moves = -_dot(s, v), moves + 1
        bb = (_dot(s, s) / sy if moves % 2 else sy / _dot(v, v)) if sy > 0 else _STEP_MAX
        alpha = min(max(bb, _STEP_MIN), _STEP_MAX)
        x, obj, rates, g = y, yobj, yrates, yg
        window[moves % _WINDOW] = obj
        if obj > best[1]:
            best = y, yobj, yrates, yg
    x, obj, rates, g = best
    return GpResult(_composite(x[0], x[1]), _composite(x[2], x[3]), obj, RatePoint(*rates),
                    converged, residual(toward(x, 1.0, g)))


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
    stationarity residual ``||proj(M + G) - M||``, each user's part over
    its budget, is at most ``eps``; ``max_iter`` moves, or a move halved below
    1e-12, stop it unconverged.  A point that passes the residual test
    below the best iterate restarts the ascent from the best one.  The
    result is the best iterate, so ``W`` is never below the initial
    point's; ``residual`` is measured there.  Each start of
    :func:`multistart` runs this same scalar loop.
    """
    validate_channel(ch)
    validate_eps(eps)
    w = _weights(w)
    m1, m2 = (check_composite_cov(m) for m in init)
    for m, p in ((m1, ch.p1), (m2, ch.p2)):
        if np.trace(m) > p * (1 + 1e-9):
            raise ValidationError(f"initial trace {np.trace(m)!r} above budget {p}")
    budget = (float(ch.p1), float(ch.p2))
    return _ascend(_receivers(ch), w, budget, _state(m1) + _state(m2), eps, max_iter)


def multistart(
    ch: SimoChannel,
    w,
    n_starts: int = 20,
    seed: int = 0,
    eps: float = GP_EPS,
) -> tuple[GpResult, list[GpResult]]:
    """Run the loop of :func:`gradient_projection` from ``n_starts`` random
    improper inits, drawn from a generator seeded with ``seed``, then from
    the proper weighted-sum-rate optimum on the full-power edges and a 5%
    improper copy of it; keep the best.  Every start returns its best
    iterate, so the best ``W`` is at least the proper optimum.  The starts
    run one after another and share nothing but the channel's constants, so
    the ``n_starts + 2`` results do not depend on ``n_starts``."""
    validate_channel(ch)
    validate_eps(eps)
    w = _weights(w)
    n_starts = int_scalar("n_starts", n_starts, 1)
    rng = np.random.default_rng(int_scalar("seed", seed))
    inits = [_state(m1) + _state(m2) for m1, m2 in
             (random_improper_init(ch, rng) for _ in range(n_starts))]
    c1, c2 = _proper_seed(ch, w)
    inits += [(c1, complex(f * c1), c2, complex(f * c2)) for f in (0.0, 0.05)]
    ks, budget = _receivers(ch), (float(ch.p1), float(ch.p2))
    results = [_ascend(ks, w, budget, x, eps, GP_MAX_ITER) for x in inits]
    best = max(results, key=lambda r: r.W)
    return best, results
