"""Channel data model, composite-real embedding, and channel transformations.

The two-user SIMO interference channel is

    y1 = h11 x1 + h12 x2 + n1,    y2 = h21 x1 + h22 x2 + n2,

with unit-covariance proper Gaussian noise at each receiver.  A transmit
strategy is the tuple of per-user variances and complex pseudovariances
``(c1, c2, ct1, ct2)``.  Everything here is a pure function of immutable
value objects and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

# Eigenvalues of a nominally PSD matrix may dip below zero by this much
# before we call the matrix indefinite.
PSD_TOL = 1e-12


@dataclass(frozen=True)
class SimoChannel:
    """Two-user SIMO interference channel with per-user power budgets.

    ``h11``/``h22`` are the direct links, ``h12`` the link from transmitter 2
    into receiver 1, ``h21`` from transmitter 1 into receiver 2.  Noise
    covariance is the identity at both receivers.  Links given as arrays of
    numbers (or lists of them) are stored as complex arrays; anything else is
    kept for :func:`validate_channel` to reject.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("h11", "h12", "h21", "h22"):
            try:
                arr = np.asarray(getattr(self, name))
            except ValueError:  # a ragged nesting
                continue
            if arr.dtype.kind in "biufc":
                object.__setattr__(self, name, arr.astype(complex, copy=False))

    def power(self, k: int) -> float:
        return self.p1 if k == 1 else self.p2

    def direct(self, k: int) -> np.ndarray:
        return self.h11 if k == 1 else self.h22

    def cross(self, k: int) -> np.ndarray:
        """Channel carrying the interference seen at receiver ``k``."""
        return self.h12 if k == 1 else self.h21


@dataclass(frozen=True)
class TxStrategy:
    """Per-user transmit variances and complex pseudovariances."""

    c1: float
    c2: float
    ct1: complex = 0.0 + 0.0j
    ct2: complex = 0.0 + 0.0j


_REAL = (int, float, np.integer, np.floating)
_NUMBER = (*_REAL, complex, np.complexfloating)


def real_scalar(name: str, v) -> float:
    """``v`` as a float, or ``ValidationError`` unless it is one real number
    (a Python or NumPy integer or float; not a string, array or complex)."""
    if not isinstance(v, _REAL):
        raise ValidationError(f"{name} must be a real number, got {v!r}")
    return float(v)


def int_scalar(name: str, v, least: int = 0) -> int:
    """``v`` as an int, or ``ValidationError`` unless it is one integer (a
    Python or NumPy integer, not a float or string) of at least ``least``."""
    if not isinstance(v, (int, np.integer)) or v < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v)


def complex_scalar(name: str, v) -> complex:
    """``v`` as a complex, or ``ValidationError`` unless it is one number."""
    if not isinstance(v, _NUMBER):
        raise ValidationError(f"{name} must be a number, got {v!r}")
    return complex(v)


def _user(name: str, c, ct) -> tuple[float, complex]:
    """One user's ``(c, ct)`` as a float and a complex, or ``ValidationError``
    unless both are finite numbers with ``|ct| <= c`` (to 1e-9), which also
    rules out a negative variance."""
    c = real_scalar(f"{name}: variance", c)
    ct = complex_scalar(f"{name}: pseudovariance", ct)
    if not (math.isfinite(c) and cmath.isfinite(ct)):
        raise ValidationError(f"{name}: non-finite entry")
    if abs(ct) > c + 1e-9:
        raise ValidationError(
            f"{name}: pseudovariance magnitude {abs(ct):.6g} exceeds variance {c:.6g}")
    return c, ct


def validate_strategy(x: TxStrategy) -> TxStrategy:
    """Check each user's variance and pseudovariance: finite, |ct_k| <= c_k."""
    if not isinstance(x, TxStrategy):
        raise ValidationError(f"strategy must be a TxStrategy, got {x!r}")
    _user("strategy user 1", x.c1, x.ct1)
    _user("strategy user 2", x.c2, x.ct2)
    return x


def validate_eps(eps: float) -> float:
    """Check that a solver tolerance is positive and finite; return it."""
    if not 0 < real_scalar("eps", eps) < np.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    return eps


def _squared_norm(name: str, v) -> float:
    """The squared norm of the link ``v``, which must be a nonempty 1-D
    complex array (as :class:`SimoChannel` stores numbers) of finite entries."""
    if not (isinstance(v, np.ndarray) and v.dtype == complex):
        raise ValidationError(f"{name} must be a vector of numbers, got {v!r}")
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"{name}: expected a 1-D vector, got shape {v.shape}")
    norm2 = float(np.vdot(v, v).real)  # inf or nan on a non-finite entry or overflow
    if not (math.isfinite(norm2) or np.isfinite(v).all()):
        raise ValidationError(f"{name}: non-finite entry")
    return norm2


def validate_channel(ch: SimoChannel) -> SimoChannel:
    """Validate dimensions, finiteness, power budgets and finite gains ``|h|^2 P``."""
    if not isinstance(ch, SimoChannel):
        raise ValidationError(f"channel must be a SimoChannel, got {ch!r}")
    s11, s12, s21, s22 = (_squared_norm(name, getattr(ch, name))
                          for name in ("h11", "h12", "h21", "h22"))
    if len(ch.h12) != len(ch.h11):
        raise ValidationError(
            f"h12: dimension mismatch (len {len(ch.h12)} != len(h11) {len(ch.h11)})"
        )
    if len(ch.h21) != len(ch.h22):
        raise ValidationError(
            f"h21: dimension mismatch (len {len(ch.h21)} != len(h22) {len(ch.h22)})"
        )
    for name, p in (("p1", ch.p1), ("p2", ch.p2)):
        if not math.isfinite(real_scalar(name, p)):
            raise ValidationError(f"{name}: non-finite power")
        if p < 0:
            raise ValidationError(f"{name}: negative power {p}")
    # |h|^2 P of each link in Python floats, which overflow to inf silently
    g1, n1, g2, n2 = (s * float(p) for s, p in
                      ((s11, ch.p1), (s12, ch.p2), (s22, ch.p2), (s21, ch.p1)))
    if not math.isfinite(g1 * n1 + g2 * n2):  # the largest proper-rate gain at unit budgets
        raise ValidationError("channel: the gains |h|^2 P overflow; rescale the links or budgets")
    return ch


def unit_budgets(ch: SimoChannel) -> SimoChannel:
    """``ch`` with transmitter k's links (``h_kk`` and the cross link it
    drives) times ``sqrt(P_k)`` and both budgets 1: the same rates, with
    powers in units of the budgets.  A zero budget zeroes its links."""
    s1, s2 = math.sqrt(ch.p1), math.sqrt(ch.p2)
    return replace(ch, h11=ch.h11 * s1, h21=ch.h21 * s1, h12=ch.h12 * s2, h22=ch.h22 * s2,
                   p1=1.0, p2=1.0)


def composite_real_embed(m) -> np.ndarray:
    """Represent a complex matrix (or column vector) as a real matrix.

    A complex linear map ``b -> M b`` acts on stacked real/imaginary parts as
    the doubled-size real matrix ``[[Re M, -Im M], [Im M, Re M]]``.  The
    embedding is a ring homomorphism: products map to products.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValidationError(f"embed: expected matrix or vector, got ndim {arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError("embed: non-finite entry")
    return np.block([[arr.real, -arr.imag], [arr.imag, arr.real]])


def _composite(c: float, ct: complex) -> np.ndarray:
    """The matrix ``(c I + S(ct)) / 2``, ``S(ct) = [[Re ct, Im ct], [Im ct,
    -Re ct]]``, of a user's ``(c, ct)``, unchecked."""
    return 0.5 * np.array([[c + ct.real, ct.imag], [ct.imag, c - ct.real]])


def _state(m) -> tuple[float, complex]:
    """``(c, ct)`` of a 2x2 matrix, its symmetric part read as
    :func:`_composite`'s; unchecked."""
    (a, b), (e, d) = np.asarray(m, dtype=float).tolist()
    return a + d, complex(a - d, b + e)


def composite_cov_from_strategy(c: float, ct: complex) -> np.ndarray:
    """Composite real covariance of a scalar input with variance ``c`` and
    pseudovariance ``ct``.

    Returns ``(c/2) I + (|ct|/2) [[cos a, sin a], [sin a, -cos a]]`` with
    ``a = arg(ct)``; the trace equals ``c`` and the eigenvalues are
    ``(c ± |ct|)/2``.
    """
    return _composite(*_user("strategy", c, ct))


def check_composite_cov(m) -> np.ndarray:
    """Validate a 2x2 composite real covariance: symmetric and PSD."""
    arr = np.asarray(m, dtype=float)
    if arr.shape != (2, 2):
        raise ValidationError(f"composite covariance must be 2x2, got {arr.shape}")
    top = float(np.abs(arr).max())  # NaN if any entry is
    if not math.isfinite(top):
        raise ValidationError("composite covariance: non-finite entry")
    scale = max(1.0, top)
    if abs(arr[0, 1] - arr[1, 0]) > 1e-9 * scale:
        raise ValidationError("composite covariance must be symmetric")
    tr = arr[0, 0] + arr[1, 1]
    det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
    if tr < -2 * PSD_TOL * scale or det < -PSD_TOL * scale * scale:
        raise ValidationError("composite covariance is indefinite")
    return arr


def strategy_from_composite_cov(m) -> tuple[float, complex]:
    """Invert :func:`composite_cov_from_strategy`: recover ``(c, ct)``."""
    return _state(check_composite_cov(m))


@dataclass(frozen=True)
class TransformedChannel:
    """Rate-equivalent two-antenna form of a :class:`SimoChannel`.

    Per user ``k`` the reduced QR of ``[h_kk, h_kj]`` yields a nonnegative
    direct gain ``hk``, real nonnegative cross coefficients ``ak`` (first
    antenna) and ``bk`` (second antenna), and the cross phase ``phik``;
    ``theta`` is the residual phase ``-phi1 - phi2`` left on the second
    user's direct link after rotating everything else real.
    """

    hk: tuple[float, float]
    ak: tuple[float, float]
    bk: tuple[float, float]
    phik: tuple[float, float]
    theta: float

    def map_strategy(self, x: TxStrategy) -> TxStrategy:
        """Map a strategy given in original coordinates into transformed
        coordinates (user 2's input absorbs a phase rotation, multiplying its
        pseudovariance by ``exp(2j*phi1)``)."""
        return replace(x, ct2=complex(x.ct2) * np.exp(2j * self.phik[0]))


def _reduced_qr(hkk: np.ndarray, hkj: np.ndarray):
    """Triangular factor of the reduced QR of ``[hkk, hkj]``.

    Returns ``(hk, ak, bk, phik)`` with
    ``R = [[hk, ak exp(j phik)], [0, bk]]`` and ``hk, ak, bk >= 0``, so
    that ``[hkk, hkj]^H [hkk, hkj] = R^H R``.  ``bk`` is 0 when ``hkj`` is
    (numerically) parallel to ``hkk``.
    """
    hk = float(np.linalg.norm(hkk))
    if hk <= 0.0:
        raise ValidationError("zero direct channel: transformation undefined")
    q1 = hkk / hk
    r12 = complex(np.vdot(q1, hkj))
    ak = abs(r12)
    phik = float(np.angle(r12)) if ak > 0 else 0.0
    nv = float(np.linalg.norm(hkj - q1 * r12))
    scale = max(1.0, float(np.linalg.norm(hkj)))
    bk = nv if nv > 1e-12 * scale else 0.0
    return hk, ak, bk, phik


def transform_channel(ch: SimoChannel) -> TransformedChannel:
    """Reduce ``ch`` to its rate-equivalent two-antenna canonical form.

    Per-user receive rotations make the direct links real and the cross
    links real nonnegative; the only surviving phase is ``theta`` on user
    2's direct link.  Rates of the returned channel (via
    :func:`channel_from_transform`) match the original for every strategy,
    with the pseudovariance bookkeeping of
    :meth:`TransformedChannel.map_strategy` applied.
    """
    validate_channel(ch)
    h1, a1, b1, phi1 = _reduced_qr(ch.h11, ch.h12)
    h2, a2, b2, phi2 = _reduced_qr(ch.h22, ch.h21)
    return TransformedChannel(
        hk=(h1, h2),
        ak=(a1, a2),
        bk=(b1, b2),
        phik=(phi1, phi2),
        theta=float(-phi1 - phi2),
    )


def enhance_channel(tc: TransformedChannel) -> TransformedChannel:
    """Zero the residual phase; the resulting channel's rate region contains
    the original's."""
    return replace(tc, theta=0.0)


def channel_from_transform(
    tc: TransformedChannel, p1: float, p2: float
) -> SimoChannel:
    """Materialize the two-antenna channel described by ``tc``."""
    h1, h2 = tc.hk
    a1, a2 = tc.ak
    b1, b2 = tc.bk
    return SimoChannel(
        h11=np.array([h1, 0.0], dtype=complex),
        h12=np.array([a1, b1], dtype=complex),
        h21=np.array([a2, b2], dtype=complex),
        h22=np.array([h2 * np.exp(1j * tc.theta), 0.0], dtype=complex),
        p1=p1,
        p2=p2,
    )


def load_scenario(source) -> SimoChannel:
    """Build a channel from a scenario dict with keys h11, h12, h21, h22
    (lists of ``[re, im]`` pairs) and powers p1, p2."""
    if not isinstance(source, dict):
        raise ValidationError("scenario: expected a JSON object")
    vecs = {}
    for name in ("h11", "h12", "h21", "h22"):
        if name not in source:
            raise ValidationError(f"scenario: missing field {name}")
        raw = source[name]
        try:
            pairs = [(float(re), float(im)) for re, im in raw]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"scenario: field {name} malformed: {exc}") from exc
        vecs[name] = np.array([complex(re, im) for re, im in pairs])
    try:
        p1 = float(source["p1"])
        p2 = float(source["p2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"scenario: bad powers: {exc}") from exc
    return validate_channel(SimoChannel(p1=p1, p2=p2, **vecs))
