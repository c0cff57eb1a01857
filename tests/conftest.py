import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq, linprog

from tinregion import preset_scenario, rate_composite
from tinregion.channel import SimoChannel, validate_channel


@pytest.fixture(scope="session")
def fig1():
    return preset_scenario("fig1")


@pytest.fixture(scope="session")
def fig2():
    return preset_scenario("fig2")


@pytest.fixture(scope="session")
def fig3():
    return preset_scenario("fig3")


def random_channel(rng, n1=2, n2=2, p=10.0):
    draw = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return validate_channel(
        SimoChannel(h11=draw(n1), h12=draw(n1), h21=draw(n2), h22=draw(n2),
                    p1=p, p2=p)
    )


def random_strategy(rng, p1=10.0, p2=10.0):
    from tinregion.channel import TxStrategy

    c1 = p1 * rng.uniform()
    c2 = p2 * rng.uniform()
    return TxStrategy(
        c1=c1,
        c2=c2,
        ct1=c1 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
        ct2=c2 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
    )


def scenario_dict(ch):
    """The scenario object that ``load_scenario`` reads back as ``ch``."""
    out = {name: [[float(z.real), float(z.imag)] for z in np.asarray(getattr(ch, name))]
           for name in ("h11", "h12", "h21", "h22")}
    return dict(out, p1=float(ch.p1), p2=float(ch.p2))


def filter_sinr(ch, w1, w2, p1, p2):
    """Per-user SINRs ``|w^H h_kk|^2 p_k / (|w^H h_kj|^2 p_j + |w|^2)`` of the
    receive filters ``w1``, ``w2`` at transmit powers ``(p1, p2)``."""
    out = []
    for w, hkk, hkj, pk, pj in ((w1, ch.h11, ch.h12, p1, p2), (w2, ch.h22, ch.h21, p2, p1)):
        w = np.asarray(w, dtype=complex)
        out.append(abs(np.vdot(w, hkk)) ** 2 * pk
                   / (abs(np.vdot(w, hkj)) ** 2 * pj + np.vdot(w, w).real))
    return out[0], out[1]


def composite_real_embed(m):
    """A complex matrix, or a vector as a column, as the real matrix ``[[Re
    M, -Im M], [Im M, Re M]]`` that acts on stacked real and imaginary parts;
    products map to products."""
    arr = np.asarray(m, dtype=complex)
    arr = arr.reshape(-1, 1) if arr.ndim == 1 else arr.reshape(arr.shape or (1, 1))
    return np.block([[arr.real, -arr.imag], [arr.imag, arr.real]])


def composite_rates(ch, m1, m2):
    """TIN rates ``(r1, r2)`` from 2x2 composite real covariances by ``2n x
    2n`` real determinants, ``r_k = log2(det Cy / det Cs) / 2`` with ``Cs =
    E_kj M_j E_kj^T + I/2`` and ``Cy = E_kk M_k E_kk^T + Cs`` (``E`` the
    embedded links): the oracle of ``rate_composite``, which evaluates the
    complex ``n x n`` form."""
    out = []
    for hkk, hkj, mk, mj in ((ch.h11, ch.h12, m1, m2), (ch.h22, ch.h21, m2, m1)):
        ekk, ekj = composite_real_embed(hkk), composite_real_embed(hkj)
        cs = ekj @ np.asarray(mj, dtype=float) @ ekj.T + 0.5 * np.eye(len(ekk))
        cy = ekk @ np.asarray(mk, dtype=float) @ ekk.T + cs
        out.append(0.5 * np.log2(np.linalg.det(cy) / np.linalg.det(cs)))
    return out[0], out[1]


def mp_rates_and_gradients(ch, x):
    """Rates ``(r1, r2)`` and the gradient of each in the state ``x = (c1,
    ct1, c2, ct2)``, from the composite-real determinants at 50 digits:
    ``r_k = log2(det Cy / det Cs) / 2`` with ``Cs = E_kj M_j E_kj^T + I/2``
    and ``Cy = E_kk M_k E_kk^T + Cs``.  The matrix gradients are ``E_kk^T
    Cy^-1 E_kk`` (own) and ``E_kj^T (Cy^-1 - Cs^-1) E_kj`` (cross), over
    ``2 ln 2``; a symmetric ``G`` is written as the state ``(tr G, G00 - G11 +
    i (G01 + G10))``, six reals per rate."""
    with mpmath.workdps(50):
        def emb(h):
            return mpmath.matrix([[v.real, -v.imag] for v in h] + [[v.imag, v.real] for v in h])

        def mat(c, ct):
            c, re, im = mpmath.mpf(c), mpmath.mpf(ct.real), mpmath.mpf(ct.imag)
            return mpmath.matrix([[c + re, im], [im, c - re]]) / 2

        m, scale = (mat(x[0], x[1]), mat(x[2], x[3])), 2 * mpmath.log(2)
        rates, grads = [], []
        for k, (hkk, hkj) in enumerate(((ch.h11, ch.h12), (ch.h22, ch.h21))):
            ek, ej = emb(hkk), emb(hkj)
            cs = ej * m[1 - k] * ej.T + mpmath.eye(ek.rows) / 2
            cy = ek * m[k] * ek.T + cs
            iy = mpmath.inverse(cy)
            own, cross = ek.T * iy * ek, ej.T * (iy - mpmath.inverse(cs)) * ej
            rates.append(float(mpmath.log(mpmath.det(cy) / mpmath.det(cs)) / scale))
            g = []
            for gm in ((own, cross) if k == 0 else (cross, own)):
                gm = gm / scale
                g += [gm[0, 0] + gm[1, 1], gm[0, 0] - gm[1, 1], gm[0, 1] + gm[1, 0]]
            grads.append(np.array([float(v) for v in g]))
    return rates, grads


def wsr(ch, m1, m2, w1, w2):
    """Weighted sum of the composite-real rates, the objective whose finite
    differences check ``improper_gp.wsr_gradient``."""
    r = rate_composite(ch, m1, m2)
    return w1 * r.r1 + w2 * r.r2


def root_corner(ch, dv):
    """Upper corner ``(p1, p2)`` of a box ``[0, corner]`` that holds every
    maximizer of the inner problem at multipliers ``dv``, for the grid
    oracles to span.  Past ``peak_k = mu_k / (lam_k ln 2) - 1/g_k``, user
    k's interference-free optimum, the objective falls in ``p_k``; the
    corner ``2 peak_k + 1/g_k`` is wider than that, and is computed from the
    channel gains here so that no oracle shares the engine's box.
    """
    corner = []
    for hkk, mu, lam in ((ch.h11, dv.mu1, dv.lam1), (ch.h22, dv.mu2, dv.lam2)):
        g = np.linalg.norm(hkk) ** 2
        peak = max(mu / (lam * np.log(2)) - 1 / g, 0.0)
        corner.append(float(2 * peak + 1 / g))
    return tuple(corner)


def proper_gains(ch):
    """Per-user gains ``(g, x, n, c)`` of :func:`proper_rates`, each a pair
    indexed by user from 0: ``g_k = |h_kk|^2``, ``x_k = |h_kj^H h_kk|^2``,
    ``n_k = |h_kj|^2`` and ``c_k = g_k n_k - x_k``.  Here ``c_k`` is ``g_k``
    times the squared residual of ``h_kj`` projected onto ``h_kk`` (0 where
    ``g_k = 0``), free of the cancellation in ``g_k n_k - x_k``."""
    gains = []
    for hkk, hkj in ((ch.h11, ch.h12), (ch.h22, ch.h21)):
        g = np.linalg.norm(hkk) ** 2
        c = g * np.linalg.norm(hkj - np.vdot(hkk, hkj) / g * hkk) ** 2 if g > 0 else 0.0
        gains.append((g, abs(np.vdot(hkj, hkk)) ** 2, np.linalg.norm(hkj) ** 2, c))
    return tuple(zip(*gains))


def proper_rates(ch, p1, p2):
    """Closed-form proper TIN rates, vectorized over power arrays.

    With an MMSE receiver the SINR of user k is
    ``p_k (g_k + p_j c_k) / (1 + p_j n_k)`` with the gains of
    :func:`proper_gains`, for any number of receive antennas.  It shares no
    code with the library, so tests can use it as an oracle.
    """
    (g1, g2), _, (n1, n2), (c1, c2) = proper_gains(ch)
    r1 = np.log2(1 + p1 * (g1 + p2 * c1) / (1 + p2 * n1))
    r2 = np.log2(1 + p2 * (g2 + p1 * c2) / (1 + p1 * n2))
    return r1, r2


# the lower end of the time-sharing power multipliers, timesharing.LAMBDA_FLOOR,
# restated here so that the oracles read nothing from the solver
LAMBDA_FLOOR = 1e-9


def fixed_strategies(ch, profile):
    """The power pairs that the time-sharing master holds as cuts at every
    multiplier, in its order: full power, then for user 1 and user 2 the
    powers ``10 P_k, 100 P_k, ...`` up to the first at least ``mu_max /
    (LAMBDA_FLOOR ln 2)``, past every inner maximizer, each with the other
    user silent and then at full power.  ``mu_max`` is the largest rate
    multiplier on ``rho . mu = 1``."""
    top = 1.0 / min(r for r in (profile.rho1, profile.rho2) if r > 0) / (LAMBDA_FLOOR * np.log(2))
    pairs = [(ch.p1, ch.p2)]
    for own, other, flip in ((ch.p1, ch.p2, False), (ch.p2, ch.p1, True)):
        p = own
        while 0 < p < top:
            p *= 10.0
            for q in (0.0, other):
                pairs.append((q, p) if flip else (p, q))
    return pairs


def highs_recovery(cuts, profile, ch):
    """Largest ``R`` of a time-sharing mixture of the fixed strategies of
    the master, the cuts' inner maximizers and the single-user corners, by
    HiGHS: maximize ``R`` with averaged rates at least ``rho_k R`` and
    averaged powers within the budgets.  The oracle of ``primal_recovery``,
    which reads the same LP from its master's weights."""
    powers = np.array([cut.p_star for cut in cuts] + fixed_strategies(ch, profile)
                      + [(ch.p1, 0.0), (0.0, ch.p2)])
    rates = np.transpose(proper_rates(ch, *powers.T))
    n = len(powers)
    # variables: [tau_1..tau_n, R]
    a_ub = np.zeros((4, n + 1))
    a_ub[:2, :n], a_ub[:2, -1] = -rates.T, (profile.rho1, profile.rho2)
    # each budget row in units of its budget, which the powers exceed by up to 1e12
    scale = np.array([p if p > 0 else 1.0 for p in (ch.p1, ch.p2)])
    a_ub[2:, :n] = powers.T / scale[:, None]
    res = linprog(-np.eye(n + 1)[-1], A_ub=a_ub, b_ub=np.r_[0.0, 0.0, [ch.p1, ch.p2] / scale],
                  A_eq=[[1.0] * n + [0.0]], b_eq=[1.0], bounds=(0.0, None),
                  method="highs")
    assert res.success, res.message
    return res.x[-1]


def pure_balanced_oracle(ch, rho=(1.0, 1.0)):
    """Max-min pure proper point of ``r_k / rho_k`` by root finding on the
    full-power edges.

    Scaling both powers up raises both MMSE SINRs, so at the max-min point
    one user transmits at full power.  Along the edge ``p_k = P_k`` the
    scaled-rate gap ``r_k / rho_k - r_j / rho_j`` falls strictly in ``p_j``,
    so it has at most one root there; the better of the two edge roots is
    the optimum.  With one weight zero the other user sends alone.  Returns
    the balanced value (the common rate at the default ``rho``) and its
    powers.
    """
    for k in (1, 2):
        if rho[2 - k] == 0.0:  # only user k counts
            pw = (ch.p1, 0.0) if k == 1 else (0.0, ch.p2)
            return float(proper_rates(ch, *pw)[k - 1]) / rho[k - 1], pw
    best = None
    for k in (1, 2):
        top = ch.p2 if k == 1 else ch.p1

        def powers(p, k=k):
            return (ch.p1, p) if k == 1 else (p, ch.p2)

        def gap(p, k=k):
            r1, r2 = proper_rates(ch, *powers(p))
            return (r1 / rho[0] - r2 / rho[1]) * (1 if k == 1 else -1)

        if gap(top) > 0:  # this user stays ahead on the whole edge
            continue
        pw = powers(brentq(gap, 0.0, top, xtol=1e-14))
        value = float(proper_rates(ch, *pw)[0]) / rho[0]
        if best is None or value > best[0]:
            best = (value, pw)
    return best


# The oracle of the time-sharing inner problem, maximize
# mu1 r1 + mu2 r2 - lam1 p1 - lam2 p2 over powers, built from the formulas of
# proper_rates alone; it shares no code with tinregion.timesharing.


def split_objective(gains, dv, p1, a, b):
    """The inner objective by the formulas of :func:`proper_rates`, with
    user 2 sending at ``b`` but interfering and penalized at ``a``; it
    broadcasts over ``p1``, ``a`` and ``b``.  It is nondecreasing in ``b`` and
    nonincreasing in ``a``, and at ``a == b`` it is the inner objective."""
    (g1, g2), _, (n1, n2), (c1, c2) = gains
    q1 = (g1 + a * c1) / (1 + a * n1)
    q2 = (g2 + p1 * c2) / (1 + p1 * n2)
    return (dv.mu1 * np.log2(1 + p1 * q1) + dv.mu2 * np.log2(1 + b * q2)
            - dv.lam1 * p1 - dv.lam2 * a)


def peak_box(gains, dv):
    """``(peak_1, peak_2)``, where ``peak_k = mu_k / (lam_k ln 2) - 1/g_k``
    (at least 0) is user k's interference-free optimum.  Interference only
    lowers ``q_k <= g_k``, and ``q / (1 + p q)`` grows with ``q``, so past
    ``peak_k`` the objective falls in ``p_k``: ``[0, peak_1] x [0, peak_2]``
    holds every maximizer."""
    return tuple(
        max(mu / (lam * np.log(2)) - 1 / g, 0.0) if g > 0 else 0.0
        for g, mu, lam in zip(gains[0], (dv.mu1, dv.mu2), (dv.lam1, dv.lam2)))


def cubic_roots(c0, c1, c2, c3):
    """Three real candidates per element for the roots of ``c0 + c1 t +
    c2 t^2 + c3 t^3`` (1-D arrays), NaN where ``c3 == 0``.

    With ``t = s - c2 / (3 c3)`` the monic cubic ``t^3 + a t^2 + b t + d``
    becomes ``s^3 + p s + q``.  Where its three roots are real they come from
    the trigonometric form; else from Cardano's real root ``u - p / (3u)``,
    with ``u^3 = -q/2 - sign(q) sqrt(q^2/4 + p^3/27)`` free of cancellation.
    The root ``r`` of largest magnitude is accurate; the other two, which a
    large ``|a|`` would swamp, solve the quadratic it leaves, with sum
    ``(b + d/r) / r`` and product ``-d/r``.  A complex pair gives its real
    part twice: it is near a double root that roundoff split.
    """
    with np.errstate(all="ignore"):
        a, b, d = c2 / c3, c1 / c3, c0 / c3
        shift = a / 3
        p = b - a * shift
        q = d - shift * (b - 2 * shift * shift)
        disc = q * q / 4 + (p / 3) ** 3
        m = 2 * np.sqrt(p / -3)
        theta = np.arccos(np.minimum(np.maximum(3 * q / (p * m), -1), 1)) / 3
        trig = m[:, None] * np.cos(theta[:, None] - 2 * np.pi / 3 * np.arange(3))
        u = np.cbrt(q / -2 - np.copysign(np.sqrt(np.maximum(disc, 0)), q))
        real = np.where(u == 0, u, u - p / (3 * u))
        r = np.where(disc[:, None] < 0, trig, real[:, None]) - shift[:, None]
        big = r[np.arange(len(r)), np.abs(r).argmax(axis=1)]
        prod = -d / big
        total = (b - prod) / big
        disc = total * total - 4 * prod
        w = 0.5 * (total + np.copysign(np.sqrt(np.maximum(disc, 0)), total))
        return big, w, np.where(disc < 0, w, prod / w)


def quadratic_roots(c0, c1, c2):
    """The two roots of ``c0 + c1 t + c2 t^2`` by the stable formula, the
    real part twice for a complex pair; ``c0 / q`` also solves a linear one,
    where ``c2 == 0``."""
    with np.errstate(all="ignore"):
        root = np.sqrt(np.maximum(c1 * c1 - 4 * c2 * c0, 0))
        q = -0.5 * (c1 + np.copysign(root, c1))
        return q / c2, c0 / q


def p1_bound(gains, dv, a, b, cap1):
    """Maximizers and maxima over ``p1`` in ``[0, cap1]`` of
    :func:`split_objective` for 1-D arrays ``a <= b``: the exact maximum at
    ``p2 = a`` where ``a == b``, else an upper bound of the objective on
    ``[0, cap1] x [a, b]``.

    With ``A = q_1(a)``, ``B = 1 + b g_2``, ``C = n_2 + b c_2``
    and ``N = n_2``, user 2's rate is ``log2((B + C p1) / (1 + N p1))``, so
    the ``p1``-derivative times ``ln 2 (1 + A p1)(B + C p1)(1 + N p1)`` is the
    cubic ``mu1 A (B + C p1)(1 + N p1) - mu2 b x_2 (1 + A p1) - lam1 ln 2
    (1 + A p1)(B + C p1)(1 + N p1)``, here in ``t = p1 / cap1``.  The
    candidates are its roots, each after one Newton step, and both ends;
    where the cubic term vanishes (a dead cross link or a silent user 1) or
    overflows the cubic formula, the roots of the quadratic part stand in.
    Each is feasible, so a spurious one can only lose.
    """
    (g1, g2), (_, x2), (n1, n2), (c1, c2) = gains
    A = (g1 + a * c1) / (1 + a * n1) * cap1
    B = 1 + b * g2
    C = (n2 + b * c2) * cap1
    N = n2 * cap1
    lam = dv.lam1 * np.log(2) * cap1
    mu2 = dv.mu2 * x2 * cap1 * b
    BNC, CN, muA = B * N + C, C * N, dv.mu1 * A
    c = (muA * B - mu2 - lam * B,
         muA * BNC - mu2 * A - lam * (BNC + A * B),
         muA * CN - lam * (CN + A * BNC),
         -lam * A * CN)
    t = np.stack(cubic_roots(*c), axis=1)
    quad = np.stack(quadratic_roots(*c[:3]), axis=1)
    t[:, 1:] = np.where(np.isfinite(t[:, 1:]), t[:, 1:], quad)
    c0, c1, c2, c3 = (v[:, None] for v in c)
    with np.errstate(all="ignore"):
        # one Newton step on the cubic, kept where it lowers |P|
        P = ((c3 * t + c2) * t + c1) * t + c0
        step = t - P / ((3 * c3 * t + 2 * c2) * t + c1)
        better = np.abs(((c3 * step + c2) * step + c1) * step + c0) < np.abs(P)
    ends = np.broadcast_to([0.0, 1.0], (len(t), 2))
    t = np.concatenate([np.where(better, step, t), ends], axis=1)
    t = np.fmin(np.fmax(t, 0.0), 1.0)  # NaN candidates go to 0, infinite ones to an end
    vals = split_objective(gains, dv, cap1 * t, a[:, None], b[:, None])
    rows, best = np.arange(len(t)), np.argmax(vals, axis=1)
    return cap1 * t[rows, best], vals[rows, best]


def grid_oracle(ch, dv):
    """Maximum of the inner objective on a 400x400 grid of
    ``[0, root_corner]``, refined seven times around its best point."""
    gains = proper_gains(ch)
    lo = np.zeros(2)
    span = np.array(root_corner(ch, dv))
    best = 0.0
    for stage in range(8):
        n = 400 if stage == 0 else 60
        p1 = np.linspace(lo[0], lo[0] + span[0], n)
        p2 = np.linspace(lo[1], lo[1] + span[1], n)
        a, b = np.meshgrid(p1, p2, indexing="ij")
        f = split_objective(gains, dv, a, b, b)
        i = np.unravel_index(np.argmax(f), f.shape)
        best = max(best, float(f[i]))
        center = np.array([a[i], b[i]])
        span = span * 0.2
        lo = np.maximum(center - span / 2, 0.0)
    return best


def inner_bnb(ch, dv, eps, incumbent=None):
    """Interval branch-and-bound for the time-sharing inner problem, the
    oracle for the library's exact solve.  Returns ``(p, low, upper)``: a
    power vector, its value, and a certified upper bound on the maximum
    within ``eps`` of it.  ``incumbent``, a power vector and its value,
    starts the search from a known point, so that with a near-optimal one
    most intervals are pruned in the first rounds.

    It searches ``p2`` over ``[0, peak_2]`` of :func:`peak_box` with the
    mixed-monotonic bound of Matthiesen, Hellings, Jorswieck and Utschick
    (IEEE TSP 2020): :func:`p1_bound` of an interval ``[a, b]``.  Every live
    interval is halved each round; midpoints sharpen the incumbent and
    halves whose bound cannot beat it by more than ``eps`` are pruned.  The
    returned bound is rounded outward by ``1e-14 (1 + |upper|)``, the
    roundoff by which two independent codes may differ.
    """
    gains = proper_gains(ch)
    cap1, cap2 = peak_box(gains, dv)
    p1, vals = p1_bound(gains, dv, np.array([0.0, 0.0, cap2]),
                        np.array([cap2, 0.0, cap2]), cap1)
    root_u = float(vals[0])
    i = 1 + int(np.argmax(vals[1:]))
    best_l, best_p = float(vals[i]), (float(p1[i]), (0.0, cap2)[i - 1])
    if incumbent is not None and incumbent[1] > best_l:
        best_p, best_l = incumbent
    lo, hi, upper = np.zeros(1), np.array([cap2]), vals[:1]
    while True:
        # an interval that is numerically a point has only roundoff left
        live = (upper > best_l + eps) & (hi - lo > 1e-14 * (1.0 + hi))
        if not live.any():
            bound = min(root_u, best_l + eps)
            return best_p, best_l, bound + 1e-14 * (1 + abs(bound))
        lo, hi = lo[live], hi[live]
        mid = 0.5 * (lo + hi)
        k = 2 * len(mid)
        p1, vals = p1_bound(gains, dv, np.concatenate([lo, mid, mid]),
                            np.concatenate([mid, hi, mid]), cap1)
        i = k + int(np.argmax(vals[k:]))
        if vals[i] > best_l:
            best_l, best_p = float(vals[i]), (float(p1[i]), float(mid[i - k]))
        keep = vals[:k] > best_l + eps
        lo = np.concatenate([lo, mid])[keep]
        hi = np.concatenate([mid, hi])[keep]
        upper = vals[:k][keep]
