"""TIN rate formulas: improper complex form, composite-real form, proper
special case, filter-SINR form, and the enhanced-channel upper bound.

All rates are in bits per channel use.  Each receiver treats the other
user's signal as additional Gaussian noise.

With proper inputs and MMSE receivers the rate has a closed form for any
number of receive antennas, ``r_k = log2(1 + p_k q_k(p_j))``.  Its one copy,
:func:`_proper_gains` and :func:`_reduced_gain`, also serves the
time-sharing inner problem and the single-user shortcuts of pure balancing.
"""

from __future__ import annotations

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
    validate_strategy,
)
from .errors import TinRegionError, ValidationError

__all__ = [
    "RatePoint",
    "rate_complex",
    "rate_composite",
    "rate_proper",
    "sinr",
    "mmse_filter",
    "enhanced_upper_bound",
    "transformed_rates",
]


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
    """Per-user gains ``(g, x, n)`` of the closed-form proper rate, each a
    pair indexed by user (0-based): ``g_k = |h_kk|^2``,
    ``x_k = |h_kj^H h_kk|^2`` and ``n_k = |h_kj|^2``."""
    links = ((ch.h11, ch.h12), (ch.h22, ch.h21))  # (h_kk, h_kj) per user
    g = tuple(float(np.linalg.norm(hkk) ** 2) for hkk, _ in links)
    x = tuple(float(abs(np.vdot(hkj, hkk)) ** 2) for hkk, hkj in links)
    n = tuple(float(np.linalg.norm(hkj) ** 2) for _, hkj in links)
    return g, x, n


def _reduced_gain(g, x, n, p_j):
    """MMSE gain ``q_k(p_j) = g_k - p_j x_k / (1 + p_j n_k)`` of a user under
    interferer power ``p_j``, elementwise on arrays.  By the rank-one identity
    it equals ``h_kk^H (I + p_j h_kj h_kj^H)^{-1} h_kk``, which is
    nonnegative; the clamp only removes roundoff."""
    return np.maximum(g - p_j * x / (1.0 + p_j * n), 0.0)


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
    if not (np.isfinite(p1) and np.isfinite(p2) and p1 >= 0 and p2 >= 0):
        raise ValidationError(f"powers must be finite and nonnegative, got {p1}, {p2}")
    g, x, n = _proper_gains(ch)
    r1 = np.log2(1.0 + p1 * _reduced_gain(g[0], x[0], n[0], p2))
    r2 = np.log2(1.0 + p2 * _reduced_gain(g[1], x[1], n[1], p1))
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


def sinr(ch: SimoChannel, w1, w2, p1: float, p2: float) -> tuple[float, float]:
    """Per-user SINRs for given receive filters and transmit powers."""
    out = []
    for k, w, pk, pj in ((1, w1, p1, p2), (2, w2, p2, p1)):
        w = np.asarray(w, dtype=complex)
        nw = float(np.vdot(w, w).real)
        if nw <= 0.0:
            raise ValidationError(f"zero receive filter for user {k}")
        sig = abs(np.vdot(w, ch.direct(k))) ** 2 * pk
        intf = abs(np.vdot(w, ch.cross(k))) ** 2 * pj
        out.append(sig / (intf + nw))
    return out[0], out[1]


def transformed_rates(
    tc: TransformedChannel, x: TxStrategy, original_coords: bool = True
) -> RatePoint:
    """Rates of the two-antenna transformed channel for a strategy.

    With ``original_coords`` the strategy is interpreted in the original
    channel's coordinates and the internal phase bookkeeping is applied, so
    the result matches the original channel's rates.
    """
    ch2 = channel_from_transform(tc, p1=0.0, p2=0.0)  # budgets unused here
    if original_coords:
        x = tc.map_strategy(x)
    return rate_complex(ch2, x)  # validates x: the map keeps every magnitude


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
