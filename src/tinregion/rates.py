"""TIN rate formulas: improper complex form, composite-real form, proper
special case, the MMSE receive filter, and the enhanced-channel upper bound.

All rates are in bits per channel use.  Each receiver treats the other
user's signal as additional Gaussian noise.

With proper inputs and MMSE receivers the rate has a closed form for any
number of receive antennas, ``r_k = log2(1 + p_k q_k(p_j))``.  Its one copy,
:func:`_proper_gains` and :func:`_proper_rates`, also serves the
time-sharing inner problem, the proper seed of the improper gradient
projection (the exact proper optimum on the full-power edges) and the
single-user shortcuts of pure balancing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import (
    SimoChannel,
    TransformedChannel,
    TxStrategy,
    channel_from_transform,
    check_composite_cov,
    composite_real_embed,
    enhance_channel,
    real_scalar,
    validate_strategy,
)
from .errors import TinRegionError, ValidationError

_LN2 = float(np.log(2.0))


class RatePoint(NamedTuple):
    r1: float
    r2: float


def _clip_rate(r: float) -> float:
    if not np.isfinite(r):
        raise TinRegionError(f"rate evaluation produced non-finite value {r}")
    if r < 0.0:
        if r < -1e-9:
            raise TinRegionError(f"rate evaluation produced negative value {r}")
        return 0.0
    return float(r)


def _proper_gains(ch: SimoChannel):
    """Per-user gains ``(g, x, n, c)`` of the closed-form proper rate, each a
    pair indexed by user (0-based): ``g_k = |h_kk|^2``, ``x_k = |h_kj^H h_kk|^2``,
    ``n_k = |h_kj|^2`` and ``c_k = g_k n_k - x_k``, by the Lagrange identity
    half the squared Frobenius norm of ``a b^T - b a^T`` (``a = h_kk``,
    ``b = h_kj``), which never cancels and is exactly 0 on one antenna."""
    gains = []
    for a, b in ((ch.h11, ch.h12), (ch.h22, ch.h21)):  # (h_kk, h_kj) per user
        w = a[:, None] * b
        w = w - w.T
        gains.append((np.vdot(a, a), abs(np.vdot(b, a)) ** 2, np.vdot(b, b), np.vdot(w, w) / 2))
    return tuple(tuple(float(v.real) for v in k) for k in zip(*gains))


def _proper_rates(gains, p1, p2):
    """Proper rates ``(r1, r2)`` in bits at powers ``(p1, p2)``, elementwise,
    from :func:`_proper_gains`.  The MMSE gain ``h_kk^H (I + p_j h_kj h_kj^H)^{-1}
    h_kk`` is ``(g_k + p_j c_k) / (1 + p_j n_k)``, with no negative term."""
    (g1, g2), _, (n1, n2), (c1, c2) = gains
    r1 = np.log1p(p1 * (g1 + p2 * c1) / (1.0 + p2 * n1)) / _LN2
    r2 = np.log1p(p2 * (g2 + p1 * c2) / (1.0 + p1 * n2)) / _LN2
    return r1, r2


def _rate_complex_one(hkk, hkj, ck, cj, ctk, ctj) -> float:
    n = len(hkk)
    eye = np.eye(n)
    cs = cj * np.outer(hkj, hkj.conj()) + eye
    cy = ck * np.outer(hkk, hkk.conj()) + cs
    r = np.log2(np.linalg.det(cy).real / np.linalg.det(cs).real)
    if ctk != 0 or ctj != 0:
        pcs = ctj * np.outer(hkj, hkj)
        pcy = ctk * np.outer(hkk, hkk) + pcs
        cyi = np.linalg.inv(cy)
        csi = np.linalg.inv(cs)
        num = np.linalg.det(eye - cyi @ pcy @ cyi.T @ pcy.conj().T).real
        den = np.linalg.det(eye - csi @ pcs @ csi.T @ pcs.conj().T).real
        r += 0.5 * np.log2(num / den)
    return r


def rate_complex(ch: SimoChannel, x: TxStrategy) -> RatePoint:
    """Achievable TIN rate pair for a (possibly improper) strategy.

    The first term is the proper-signal determinant ratio; the second
    corrects for the pseudocovariances of the receive and interference
    signals and vanishes for proper inputs.  Raises ``ValidationError`` for
    a strategy that :func:`~tinregion.channel.validate_strategy` rejects.
    """
    validate_strategy(x)
    r1 = _rate_complex_one(ch.h11, ch.h12, x.c1, x.c2, complex(x.ct1), complex(x.ct2))
    r2 = _rate_complex_one(ch.h22, ch.h21, x.c2, x.c1, complex(x.ct2), complex(x.ct1))
    return RatePoint(_clip_rate(r1), _clip_rate(r2))


def _rate_composite_one(hkk_e, hkj_e, mk, mj) -> float:
    n2 = hkk_e.shape[0]
    cs = hkj_e @ mj @ hkj_e.T + 0.5 * np.eye(n2)
    cy = hkk_e @ mk @ hkk_e.T + cs
    return 0.5 * np.log2(np.linalg.det(cy) / np.linalg.det(cs))


def rate_composite(ch: SimoChannel, m1, m2) -> RatePoint:
    """Rate pair from 2x2 composite real input covariances.

    Equals :func:`rate_complex` when ``m_k`` comes from
    :func:`composite_cov_from_strategy`.
    """
    m1 = check_composite_cov(m1)
    m2 = check_composite_cov(m2)
    e11 = composite_real_embed(ch.h11)
    e12 = composite_real_embed(ch.h12)
    e21 = composite_real_embed(ch.h21)
    e22 = composite_real_embed(ch.h22)
    r1 = _rate_composite_one(e11, e12, m1, m2)
    r2 = _rate_composite_one(e22, e21, m2, m1)
    return RatePoint(_clip_rate(r1), _clip_rate(r2))


def rate_proper(ch: SimoChannel, p1: float, p2: float) -> RatePoint:
    """Rate pair for proper signaling with transmit powers ``(p1, p2)``."""
    p1, p2 = real_scalar("p1", p1), real_scalar("p2", p2)
    if not (math.isfinite(p1) and math.isfinite(p2) and p1 >= 0 and p2 >= 0):
        raise ValidationError(f"powers must be finite and nonnegative, got {p1}, {p2}")
    r1, r2 = _proper_rates(_proper_gains(ch), p1, p2)
    return RatePoint(_clip_rate(r1), _clip_rate(r2))


def mmse_filter(ch: SimoChannel, k: int, p_j: float) -> np.ndarray:
    """Interference-aware MMSE receive filter for user ``k``.

    ``w = (h_kj p_j h_kj^H + I)^{-1} h_kk``; maximizes the SINR over all
    receive filters.
    """
    if not 0 <= p_j < np.inf:
        raise ValidationError(f"interferer power must be finite and >= 0, got {p_j}")
    hkk = ch.direct(k)
    hkj = ch.cross(k)
    cs = p_j * np.outer(hkj, hkj.conj()) + np.eye(len(hkk))
    return np.linalg.solve(cs, hkk)


def transformed_rates(tc: TransformedChannel, x: TxStrategy) -> RatePoint:
    """Rates of the two-antenna transformed channel for a strategy given in
    the original channel's coordinates; the internal phase bookkeeping is
    applied, so the result matches the original channel's rates."""
    ch2 = channel_from_transform(tc, p1=0.0, p2=0.0)  # budgets unused here
    # validates x: the map keeps every magnitude
    return rate_complex(ch2, tc.map_strategy(x))


def enhanced_upper_bound(tc: TransformedChannel, x: TxStrategy) -> RatePoint:
    """Per-user rate upper bound from the phase-enhanced channel.

    Evaluates the enhanced channel (residual phase zeroed) with the two
    pseudovariance phases anti-aligned, keeping variances and
    pseudovariance magnitudes.  The result bounds the transformed channel's
    rates for the same magnitudes under any phase choice, and is attained
    with equality on the enhanced channel itself.
    """
    etc = enhance_channel(tc)
    ch2 = channel_from_transform(etc, p1=0.0, p2=0.0)
    aligned = TxStrategy(
        c1=x.c1, c2=x.c2, ct1=abs(complex(x.ct1)), ct2=-abs(complex(x.ct2))
    )
    return rate_complex(ch2, aligned)  # validates x: magnitudes are kept
