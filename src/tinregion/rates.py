"""TIN rate formulas: improper complex form, composite real inputs, proper
special case, the MMSE receive filter, and the enhanced-channel upper bound.

All rates are in bits per channel use.  Each receiver treats the other
user's signal as additional Gaussian noise.

With proper inputs and MMSE receivers the rate has a closed form for any
number of receive antennas, ``r_k = log2(1 + p_k q_k(p_j))``.  Its one copy,
:func:`_proper_gains` and :func:`_proper_rates`, also serves the
time-sharing inner problem, the proper seed of the improper gradient
projection (the exact proper optimum on the full-power edges) and the
single-user shortcuts of pure balancing.  The improper rate has one too,
:func:`_receiver_rate`, behind the gradient projection and, at each
receiver's best phase, the enhanced-channel upper bound.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .channel import (
    SimoChannel,
    TransformedChannel,
    TxStrategy,
    _gram,
    channel_from_transform,
    real_scalar,
    strategy_from_composite_cov,
    validate_channel,
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
    ``n_k = |h_kj|^2`` and ``c_k = g_k n_k - x_k``, from receiver k's
    :func:`~tinregion.channel._gram`, whose ``c_k`` never cancels."""
    (g1, z1, n1, c1), (g2, z2, n2, c2) = _gram(ch.h11, ch.h12), _gram(ch.h22, ch.h21)
    return (g1, g2), (abs(z1) ** 2, abs(z2) ** 2), (n1, n2), (c1, c2)


def _proper_rates(gains, p1, p2):
    """Proper rates ``(r1, r2)`` in bits at powers ``(p1, p2)``, elementwise,
    from :func:`_proper_gains`.  The MMSE gain ``h_kk^H (I + p_j h_kj h_kj^H)^{-1}
    h_kk`` is ``(g_k + p_j c_k) / d_k``, ``d_k = 1 + p_j n_k``, with no negative
    term, taken as ``g_k / d_k + c_k (p_j / d_k)`` so that nothing overflows."""
    (g1, g2), _, (n1, n2), (c1, c2) = gains
    d1, d2 = 1.0 + p2 * n1, 1.0 + p1 * n2
    r1 = np.log1p(p1 * (g1 / d1 + c1 * (p2 / d1))) / _LN2
    r2 = np.log1p(p2 * (g2 / d2 + c2 * (p1 / d2))) / _LN2
    return r1, r2


def _receivers(ch: SimoChannel):
    """Constants ``(c/n, x/n, x, n, conj(z)^2)`` of each receiver for
    :func:`_receiver_rate`, from its Gram matrix ``(g, z, n, c)`` of
    :func:`~tinregion.channel._gram` (``x = |z|^2``, ``c = g n - x``).  A
    dead cross link (``n = 0``) gives ``(g, 0, 0, 0, 0)``."""
    out = []
    for hkk, hkj in ((ch.h11, ch.h12), (ch.h22, ch.h21)):
        g, z, n, c = _gram(hkk, hkj)
        x = abs(z) ** 2
        out.append((c / n, x / n, x, n, z.conjugate() ** 2) if n else (g, 0.0, 0.0, 0.0, 0j))
    return tuple(out)


def _receiver_rate(k, ck, tk, cj, tj):
    """``T - 1`` at receiver ``k``, whose rate is ``log2(T) / 2``, with the
    gradients of ``T`` in ``ck, tk`` (its user's variance and pseudovariance)
    and ``cj, tj`` (the interferer's); a complex gradient is ``d/dRe + i
    d/dIm``.

    Sylvester's identity gives ``T = det(I + M_k A)`` with ``A = E_kk^T
    Cs^-1 E_kk``, and Woodbury gives ``A = a I + S(b)`` with ``D = det(I +
    2n M_j) / 2``, ``a = 2(g - x/n) + (x/n + x cj) / D`` and ``b = -conj(z)^2
    tj / D``, so ``T = 1 + ck a + Re(tk conj b) + (ck^2 - |tk|^2)(a^2 -
    |b|^2) / 4``.  The proper gain ``c/n`` stands for ``g - x/n``, which
    cancels on cross links along the direct ones."""
    cn, xn, x, n, zz = k
    u, v = 1.0 + n * cj, n * abs(tj)
    d = 0.5 * (1.0 + n * (cj - abs(tj))) * (u + v)  # u - v, not cancelling as |tj| -> cj
    a, b = 2.0 * cn + (xn + x * cj) / d, -zz * tj / d
    mk, mb = abs(tk), abs(b)
    ek, p = (ck - mk) * (ck + mk), (a - mb) * (a + mb)
    ta, tb = ck + 0.5 * ek * a, tk - 0.5 * ek * b
    rho = (tb.conjugate() * b).real / d
    return (ck * a + (tk * b.conjugate()).real + 0.25 * ek * p, a + 0.5 * ck * p,
            b - 0.5 * tk * p, -0.5 * ta * x * (u * u + v * v) / (d * d) - rho * n * u,
            ta * x * n * u * tj / (d * d) - tb * zz.conjugate() / d + rho * n * n * tj)


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


def _rates(ch: SimoChannel, x: TxStrategy) -> RatePoint:
    """:func:`rate_complex` of a channel and strategy known to be valid."""
    r1 = _rate_complex_one(ch.h11, ch.h12, x.c1, x.c2, complex(x.ct1), complex(x.ct2))
    r2 = _rate_complex_one(ch.h22, ch.h21, x.c2, x.c1, complex(x.ct2), complex(x.ct1))
    return RatePoint(_clip_rate(r1), _clip_rate(r2))


def rate_complex(ch: SimoChannel, x: TxStrategy) -> RatePoint:
    """Achievable TIN rate pair for a (possibly improper) strategy.

    The first term is the proper-signal determinant ratio; the second
    corrects for the pseudocovariances of the receive and interference
    signals and vanishes for proper inputs.  Raises ``ValidationError`` for
    a channel or strategy that :func:`~tinregion.channel.validate_channel`
    or :func:`~tinregion.channel.validate_strategy` rejects.
    """
    return _rates(validate_channel(ch), validate_strategy(x))


def rate_composite(ch: SimoChannel, m1, m2) -> RatePoint:
    """Rate pair from 2x2 composite real input covariances: the rates of
    :func:`rate_complex` at the strategy that
    :func:`~tinregion.channel.strategy_from_composite_cov` reads from them.
    """
    validate_channel(ch)
    (c1, ct1), (c2, ct2) = strategy_from_composite_cov(m1), strategy_from_composite_cov(m2)
    return _rates(ch, TxStrategy(c1, c2, ct1, ct2))


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
    if not 0 <= real_scalar("interferer power", p_j) < np.inf:
        raise ValidationError(f"interferer power must be finite and >= 0, got {p_j}")
    hkk = ch.direct(k)
    hkj = ch.cross(k)
    cs = p_j * np.outer(hkj, hkj.conj()) + np.eye(len(hkk))
    return np.linalg.solve(cs, hkk)


def _transformed(tc) -> TransformedChannel:
    if not isinstance(tc, TransformedChannel):
        raise ValidationError(f"tc must be a TransformedChannel, got {tc!r}")
    return tc


def transformed_rates(tc: TransformedChannel, x: TxStrategy) -> RatePoint:
    """Rates of the two-antenna transformed channel for a strategy given in
    the original channel's coordinates; the internal phase bookkeeping is
    applied, so the result matches the original channel's rates."""
    ch2 = channel_from_transform(_transformed(tc), p1=0.0, p2=0.0)  # budgets unused here
    return _rates(ch2, tc.map_strategy(validate_strategy(x)))


def enhanced_upper_bound(tc: TransformedChannel, x: TxStrategy) -> RatePoint:
    """Per-user rate upper bound from the phase-enhanced channel.

    The kernel :func:`_receiver_rate` sees the phases only in ``Re(tk conj
    b)``, ``b = -conj(z)^2 tj / D``.  On the enhanced channel (residual
    phase zeroed) ``conj(z)^2 >= 0``, so with the pseudovariances real and
    of opposite signs, keeping variances and magnitudes, ``b`` lies on the
    phase of ``tk`` at both receivers: each takes its best phase.  The
    result bounds the transformed channel's rates for the same magnitudes
    under any phase choice.
    """
    ch2 = channel_from_transform(replace(_transformed(tc), theta=0.0), p1=0.0, p2=0.0)
    validate_strategy(x)
    ks, t1, t2 = _receivers(ch2), abs(complex(x.ct1)), -abs(complex(x.ct2))
    q = _receiver_rate(ks[0], x.c1, t1, x.c2, t2)[0], _receiver_rate(ks[1], x.c2, t2, x.c1, t1)[0]
    return RatePoint(*(_clip_rate(math.log1p(qk) / (2.0 * _LN2)) for qk in q))
