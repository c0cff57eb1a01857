import numpy as np
import pytest
from scipy.optimize import brentq

from tinregion import preset_scenario
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


def proper_rates(ch, p1, p2):
    """Closed-form proper TIN rates, vectorized over power arrays.

    With an MMSE receiver the SINR of user k is
    ``p_k (g_k - p_j x_k / (1 + p_j n_k))`` where ``g_k = |h_kk|^2``,
    ``x_k = |h_kj^H h_kk|^2`` and ``n_k = |h_kj|^2``, for any number of
    receive antennas.  It shares no code with the library, so tests can
    use it as an oracle.
    """
    g1, g2 = np.linalg.norm(ch.h11) ** 2, np.linalg.norm(ch.h22) ** 2
    x1 = abs(np.vdot(ch.h12, ch.h11)) ** 2
    x2 = abs(np.vdot(ch.h21, ch.h22)) ** 2
    n1, n2 = np.linalg.norm(ch.h12) ** 2, np.linalg.norm(ch.h21) ** 2
    r1 = np.log2(1 + p1 * np.clip(g1 - p2 * x1 / (1 + p2 * n1), 0, None))
    r2 = np.log2(1 + p2 * np.clip(g2 - p1 * x2 / (1 + p1 * n2), 0, None))
    return r1, r2


def pure_balanced_oracle(ch):
    """Max-min pure proper point by root finding on the full-power edges.

    Scaling both powers up raises both MMSE SINRs, so at the max-min point
    one user transmits at full power.  Along the edge ``p_k = P_k`` the
    rate gap ``r_k - r_j`` falls strictly in ``p_j``, so ``r1 = r2`` has at
    most one root there; the better of the two edge roots is the optimum.
    Returns the balanced rate and its powers.
    """
    best = None
    for k in (1, 2):
        top = ch.p2 if k == 1 else ch.p1

        def powers(p, k=k):
            return (ch.p1, p) if k == 1 else (p, ch.p2)

        def gap(p, k=k):
            r1, r2 = proper_rates(ch, *powers(p))
            return (r1 - r2) if k == 1 else (r2 - r1)

        if gap(top) > 0:  # this user stays ahead on the whole edge
            continue
        pw = powers(brentq(gap, 0.0, top, xtol=1e-14))
        value = float(proper_rates(ch, *pw)[0])
        if best is None or value > best[0]:
            best = (value, pw)
    return best


def inner_bnb(ch, dv, eps, incumbent=None):
    """Interval branch-and-bound for the time-sharing inner problem, the
    oracle for the library's exact solve.  Returns ``(p, low, upper)``: a
    power vector, its value, and a certified upper bound on the maximum
    within ``eps`` of it.  ``incumbent``, a power vector and its value,
    starts the search from a known point, so that with a near-optimal one
    most intervals are pruned in the first rounds.

    It searches ``p2`` over ``[0, peak_2]`` with the mixed-monotonic bound of
    Matthiesen, Hellings, Jorswieck and Utschick (IEEE TSP 2020):
    ``_InnerProblem.p1_max(a, b, peak_1)`` maximizes exactly over ``p1``
    with user 2 sending at ``b`` and interfering at ``a``, which bounds the
    objective on ``[0, peak_1] x [a, b]`` (``TestP1Max`` checks it against
    grids).  Every live interval is halved each round; midpoints sharpen the
    incumbent and halves whose bound cannot beat it by more than ``eps`` are
    pruned.
    """
    from tinregion.timesharing import _InnerProblem

    prob = _InnerProblem(ch, dv)
    cap1, cap2 = prob.peak
    p1, vals = prob.p1_max(np.array([0.0, 0.0, cap2]),
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
            return best_p, best_l, min(root_u, best_l + eps)
        lo, hi = lo[live], hi[live]
        mid = 0.5 * (lo + hi)
        k = 2 * len(mid)
        p1, vals = prob.p1_max(np.concatenate([lo, mid, mid]),
                               np.concatenate([mid, hi, mid]), cap1)
        i = k + int(np.argmax(vals[k:]))
        if vals[i] > best_l:
            best_l, best_p = float(vals[i]), (float(p1[i]), float(mid[i - k]))
        keep = vals[:k] > best_l + eps
        lo = np.concatenate([lo, mid])[keep]
        hi = np.concatenate([mid, hi])[keep]
        upper = vals[:k][keep]
