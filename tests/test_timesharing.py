import ast
import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from tinregion import (
    DualVariables,
    RateProfile,
    TxStrategy,
    ValidationError,
    balance_pure_proper,
    cutting_plane,
    primal_recovery,
    rate_complex,
    rate_proper,
    sweep_region,
)
from tinregion import region, timesharing
from tinregion.channel import SimoChannel, validate_channel
from tinregion.errors import ConvergenceError
from tinregion.proper_pure import gamma_of_R
from tinregion.rates import _proper_gains
from tinregion.timesharing import (
    _COLLEAGUE, _COLLEAGUE_WEIGHT, _EDGES, _FIT, _NODES, LAMBDA_FLOOR, _ROOT_SLACK, Cut,
    _InnerProblem, _colleague_roots, _exact_inner, _master, _lambda_max,
)

from conftest import (
    fixed_strategies, grid_oracle, highs_recovery, inner_bnb, p1_bound, peak_box,
    proper_gains, proper_rates, random_channel, root_corner, split_objective,
)


class TestMmObjective:
    # the library's inner objective, _InnerProblem.value, and the oracle's
    # mixed-monotonic one, conftest.split_objective
    def test_zero(self, fig1):
        prob = _problem(fig1, DualVariables(1.0, 1.0, 0.1, 0.1))
        assert prob.value(0.0, 0.0) == 0.0

    def test_no_interference_no_penalty(self, fig1):
        prob = _problem(fig1, DualVariables(1.0, 1.0, LAMBDA_FLOOR, LAMBDA_FLOOR))
        got = prob.value(4.0, 0.0) + prob.value(0.0, 7.0)
        want = np.log2(1 + 4.0 * np.linalg.norm(fig1.h11) ** 2) + np.log2(
            1 + 7.0 * np.linalg.norm(fig1.h22) ** 2
        ) - 11.0 * LAMBDA_FLOOR
        assert abs(got - want) <= 1e-9

    def test_diagonal_matches_penalized_rates(self, fig1):
        # against the determinant formula, which shares no code with it
        rng = np.random.default_rng(29)
        powers = [(10.0, 10.0)] + [tuple(rng.uniform(0, 10, 2)) for _ in range(20)]
        for dv in (
            DualVariables(1.0, 1.0, 0.1, 0.1), DualVariables(0.6, 1.4, 0.1, 0.3)
        ):
            prob = _problem(fig1, dv)
            for p in powers:
                r = rate_complex(fig1, TxStrategy(*p))
                want = dv.mu1 * r.r1 + dv.mu2 * r.r2 - dv.lam1 * p[0] - dv.lam2 * p[1]
                assert abs(prob.value(*p) - want) <= 1e-10
            # the array form is the scalar form elementwise
            np.testing.assert_array_equal(
                prob.value(*np.transpose(powers)), [prob.value(*p) for p in powers])

    def test_monotonicity(self, fig1):
        # the oracle's objective, user 2 sending at b but interfering and
        # penalized at a, is the one solved directly from the MMSE gains;
        # it rises with b and falls with a
        dv = DualVariables(1.0, 0.7, 0.05, 0.08)
        gains = proper_gains(fig1)
        rng = np.random.default_rng(30)
        p1, a, b = rng.uniform(0, 10, (3, 200))
        da, db = rng.uniform(0, 2, (2, 200))
        base = split_objective(gains, dv, p1, a, b)
        want = [_direct_objective(fig1, dv, p1[i], b[i], a[i])[0, 0]
                for i in range(200)]
        np.testing.assert_allclose(base, want, rtol=0, atol=1e-10)
        assert (split_objective(gains, dv, p1, a, b + db) >= base - 1e-12).all()
        assert (split_objective(gains, dv, p1, a + da, b) <= base + 1e-12).all()


def _problem(ch, dv):
    """The library's inner problem on ``ch`` at multipliers ``dv``."""
    return _InnerProblem(_proper_gains(ch), (dv.mu1, dv.mu2), (dv.lam1, dv.lam2))


def solve_inner(ch, dv):
    """The inner maximizer and maximum that ``cutting_plane`` cuts with."""
    return _exact_inner(_problem(validate_channel(ch), dv))


def dual_value(ch, dv):
    """Dual objective: power-budget term plus the inner maximum."""
    return dv.lam1 * ch.p1 + dv.lam2 * ch.p2 + solve_inner(ch, dv)[1]


def _swap_users(ch):
    return SimoChannel(h11=ch.h22, h12=ch.h21, h21=ch.h12, h22=ch.h11,
                       p1=ch.p2, p2=ch.p1)


def _direct_objective(ch, dv, p1, x2, y2):
    """``mu1 r1 + mu2 r2 - lam1 p1 - lam2 y2`` on the grid ``p1 x x2``,
    where user 2 sends at ``x2`` but interferes at ``y2`` (a 1-D array like
    ``x2``); the MMSE gains ``h_kk^H (I + p_j h_kj h_kj^H)^{-1} h_kk`` are
    solved directly."""

    def gain(hkk, hkj, pj):
        cov = np.eye(len(hkk)) + pj[:, None, None] * np.outer(hkj, hkj.conj())
        w = np.linalg.solve(cov, np.broadcast_to(hkk, (len(pj), len(hkk)))[..., None])
        return np.einsum("i,ki->k", hkk.conj(), w[..., 0]).real

    p1, x2, y2 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (p1, x2, y2))
    q1 = gain(ch.h11, ch.h12, y2)[None, :]
    q2 = gain(ch.h22, ch.h21, p1)[:, None]
    a = p1[:, None]
    return (dv.mu1 * np.log2(1 + a * q1) + dv.mu2 * np.log2(1 + x2[None, :] * q2)
            - dv.lam1 * a - dv.lam2 * y2[None, :])


def _p1_grid_max(ch, dv, x2, y2, cap1):
    """Maximum over ``p1`` in ``[0, cap1]`` of :func:`_direct_objective` at
    one ``(x2, y2)`` on a 4001-point grid, refined four times around its
    best point."""
    lo, hi = 0.0, cap1
    for _ in range(5):
        grid = np.linspace(lo, hi, 4001)
        f = _direct_objective(ch, dv, grid, x2, y2)[:, 0]
        i = int(np.argmax(f))
        step = grid[1] - grid[0]
        lo, hi = max(grid[i] - 2 * step, 0.0), min(grid[i] + 2 * step, cap1)
    return float(f[i])


class TestP1Max:
    # _InnerProblem.p1_max and the oracle's p1_bound against grids of the
    # objective written out from log2 and the MMSE gains, and against each
    # other
    @staticmethod
    def _cases(fig1, fig2, fig3):
        rng = np.random.default_rng(36)
        for ch in (fig1, fig2, fig3, _swap_users(fig3)):
            for _ in range(5):
                mu1 = rng.uniform(0, 2)
                dv = DualVariables(mu1, 2 - mu1, *rng.uniform(1e-3, 1, 2))
                yield ch, dv, root_corner(ch, dv), rng

    def test_exact_at_fixed_p2(self, fig1, fig2, fig3):
        for ch, dv, (cap1, cap2), rng in self._cases(fig1, fig2, fig3):
            prob = _problem(ch, dv)
            p2 = np.concatenate([[0.0, cap2], rng.uniform(0, cap2, 3)])
            p1, val = prob.p1_max(p2, cap1)
            assert ((0.0 <= p1) & (p1 <= cap1)).all()
            np.testing.assert_allclose(val, prob.value(p1, p2), atol=1e-12)
            want = [_p1_grid_max(ch, dv, b, b, cap1) for b in p2]
            np.testing.assert_allclose(val, want, atol=1e-6)

    def test_interval_bound(self, fig1, fig2, fig3):
        # the oracle's bound is the exact maximum of the objective with user
        # 2's signal at b and its interference and penalty at a, so it is at
        # least the objective anywhere on [0, cap1] x [a, b]
        for ch, dv, (cap1, cap2), rng in self._cases(fig1, fig2, fig3):
            gains = proper_gains(ch)
            for _ in range(4):
                a, b = np.sort(rng.uniform(0, cap2, 2))
                _, (bound,) = p1_bound(gains, dv, np.array([a]), np.array([b]), cap1)
                assert abs(bound - _p1_grid_max(ch, dv, b, a, cap1)) <= 1e-6
                p2 = np.linspace(a, b, 41)
                f = _direct_objective(ch, dv, np.linspace(0, cap1, 4001), p2, p2)
                assert f.max() <= bound + 1e-9

    def test_oracle_matches_library(self, fig1, fig2, fig3):
        # at a == b the oracle's closed-form cubic and the library's
        # eigensolve maximize the same function, so the two codes agree
        cases = [(ch, dv, cap1, rng.uniform(0, cap2, 20))
                 for ch, dv, (cap1, cap2), rng in self._cases(fig1, fig2, fig3)]
        rng = np.random.default_rng(39)
        for case in _INTERFERENCE_FREE:
            ch = _interference_free(case, fig1, fig3)
            for _ in range(10):
                dv = DualVariables(*rng.uniform(0, 2, 2), *10 ** rng.uniform(-3, 0, 2))
                cap1, cap2 = peak_box(proper_gains(ch), dv)
                cases.append((ch, dv, cap1, rng.uniform(0, cap2, 20)))
        # a one-antenna receiver at a lam1 as low as the cutting plane
        # visits, where the gain g - p x / (1 + p n) once cancelled
        ch = random_channel(np.random.default_rng(3), 1, 1)
        dv = DualVariables(1.5, 0.2, 2.7e-9, 2e-7)
        cases.append((ch, dv, peak_box(proper_gains(ch), dv)[0], np.array([7e7, 7.5e7, 8e7])))
        for ch, dv, cap1, p2 in cases:
            p2 = np.concatenate([[0.0], p2])
            _, want = _problem(ch, dv).p1_max(p2, cap1)
            _, got = p1_bound(proper_gains(ch), dv, p2, p2, cap1)
            assert (np.abs(got - want) <= 1e-12 * (1 + np.abs(want))).all(), dv


def _scaled_channel(rng):
    """A random channel with 1-4 antennas per receiver whose gains are
    scaled to an SNR between 0.1 and 1e3."""
    snr = 10 ** rng.uniform(-1, 3)
    ch = random_channel(rng, *rng.integers(1, 5, 2), p=snr)
    return replace(ch, **{f: getattr(ch, f) * np.sqrt(snr)
                          for f in ("h11", "h12", "h21", "h22")})


class TestInnerBox:
    # the exact solve searches [0, peak_1] x [0, peak_2]
    def test_wider_grid_within_certificate(self):
        # the grid oracle spans conftest.root_corner, wider than the solve's
        # box, so a maximizer outside that box would beat the exact value
        rng = np.random.default_rng(37)
        for _ in range(40):
            ch = _scaled_channel(rng)
            mu1 = rng.uniform(0, 2)
            dv = DualVariables(mu1, 2 - mu1, *10 ** rng.uniform(-4, 1, 2))
            _, val = solve_inner(ch, dv)
            assert grid_oracle(ch, dv) <= val + 1e-9 * (1 + abs(val))

    def test_priced_out_user_is_silent(self):
        # with lam_k ln 2 >= mu_k g_k user k's marginal is below its price
        # at every power, whatever the other user does; most cases sit on
        # the boundary, where the peak must still come out exactly zero
        rng = np.random.default_rng(38)
        for factor in [1.0] * 500 + [1.5, 100.0] * 20:
            ch = _scaled_channel(rng)
            g = _proper_gains(ch)[0]
            k = int(rng.integers(2))
            mu = rng.uniform(0.1, 2, 2)
            lam = 10 ** rng.uniform(-3, 0, 2)
            lam[k] = mu[k] * g[k] / np.log(2) * factor
            while lam[k] * np.log(2) < mu[k] * g[k]:
                lam[k] = np.nextafter(lam[k], np.inf)
            p, _ = solve_inner(ch, DualVariables(*mu, *lam))
            assert p[k] == 0.0


class TestSolveInner:
    def test_huge_penalty_forces_zero(self, fig1):
        dv = DualVariables(1.0, 1.0, 1e3, 1e3)
        p, val = solve_inner(fig1, dv)
        assert p == (0.0, 0.0) and abs(val) <= 1e-12

    def test_zero_weight_shuts_user(self, fig1):
        dv = DualVariables(1.0, 0.0, 0.05, 0.05)
        p, _ = solve_inner(fig1, dv)
        assert p[1] <= 1e-6

    def test_matches_grid_oracle(self, fig1):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mu1 = rng.uniform(0, 2)
            dv = DualVariables(
                mu1, 2.0 - mu1, rng.uniform(0.02, 0.5), rng.uniform(0.02, 0.5)
            )
            _, val = solve_inner(fig1, dv)
            oracle = grid_oracle(fig1, dv)
            assert abs(val - oracle) <= 1e-3

    @pytest.mark.parametrize("scale", [1e20, 1e40, 1e60])
    def test_huge_gains(self, fig1, scale):
        # every product of the cubic in p1 overflowed at these scales; each
        # solve returns a finite maximizer whose value the closed-form rates
        # reproduce, or rejects the input, and warns of nothing
        ch = replace(fig1, **{f: getattr(fig1, f) * scale
                              for f in ("h11", "h12", "h21", "h22")})
        for lam in (1e-9, 1e-3, 1e3, 1e12):
            for mu1 in (0.0, 1.0, 1e3, 1e6):
                dv = DualVariables(mu1, 1.0, lam, lam)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        (p1, p2), val = solve_inner(ch, dv)
                    except ValidationError:
                        continue
                r = rate_proper(ch, p1, p2)
                assert np.isfinite([p1, p2, val]).all()
                want = mu1 * r.r1 + r.r2 - lam * (p1 + p2)
                assert abs(val - want) <= 1e-9 * (1 + abs(want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_multipliers(self, bad):
        for i in range(4):
            args = [1.0, 1.0, 0.1, 0.1]
            args[i] = bad
            with pytest.raises(ValidationError, match="finite"):
                DualVariables(*args)


class TestEngine:
    @pytest.mark.parametrize("snr", [100, 400_000])
    def test_deterministic(self, fig1, snr):
        # fig1's gains scaled by sqrt(snr), at which both users send
        def scaled():
            return replace(fig1, **{f: getattr(fig1, f) * np.sqrt(snr)
                                    for f in ("h11", "h12", "h21", "h22")})

        dv = DualVariables(0.7, 1.3, 0.04, 0.2)
        first = solve_inner(scaled(), dv)
        assert min(first[0]) > 0.0
        assert solve_inner(scaled(), dv) == first
        _check_against_oracle(scaled(), dv, 1e-6)

    @pytest.mark.parametrize("name", ["fig1", "fig3"])
    def test_multiplier_past_the_old_box_cap(self, name, request):
        # the 2-D box engine ran out of its 2 M boxes on this multiplier
        ch = request.getfixturevalue(name)
        dv = DualVariables(0.7, 1.3, 0.02, 0.3)
        _, val = solve_inner(ch, dv)
        oracle = grid_oracle(ch, dv)
        assert abs(val - oracle) <= 1e-3
        _check_against_oracle(ch, dv, 1e-6)
        _certify(ch, dv)


def _collinear(ch):
    """``ch`` with each cross link along the same receiver's direct link,
    so that ``c_k = g_k n_k - x_k = 0``."""
    return replace(ch, h12=1.2 * ch.h11, h21=1.4 * ch.h22)


def _orthogonal(hkj, hkk):
    """The component of the cross link ``hkj`` orthogonal to the direct link
    ``hkk``, for which ``x_k = |h_kj^H h_kk|^2`` is roundoff."""
    return hkj - np.vdot(hkk, hkj) / np.vdot(hkk, hkk) * hkk


_INTERFERENCE_FREE = ["fig3-swapped", "fig1-h21-zeroed", "fig1-h21-orthogonal",
                      "fig1-both-orthogonal"]


def _interference_free(case, fig1, fig3):
    """A channel whose cross link into receiver 2 carries nothing along
    ``h22`` (``x_2 = 0``)."""
    if case == "fig3-swapped":
        return _swap_users(fig3)
    if case == "fig1-h21-zeroed":
        return replace(fig1, h21=0 * fig1.h21)
    h21 = _orthogonal(fig1.h21, fig1.h22)
    if case == "fig1-h21-orthogonal":
        return replace(fig1, h21=h21)
    return replace(fig1, h12=_orthogonal(fig1.h12, fig1.h11), h21=h21)


def _solve_attained(ch, dv):
    """The exact solve, checked to return a power vector in the box and
    that vector's value."""
    p, val = solve_inner(ch, dv)
    prob = _problem(ch, dv)
    assert all(0.0 <= p[k] <= prob.peak[k] for k in (0, 1))
    assert abs(prob.value(*p) - val) <= 1e-12 * (1 + abs(val))
    return p, val


def _check_against_oracle(ch, dv, eps):
    """The exact solve's value is attained, is not below the
    branch-and-bound incumbent by more than ``1e-9 (1 + |v|)``, and is not
    above the oracle's certified bound."""
    _, val = _solve_attained(ch, dv)
    _, low, upper = inner_bnb(ch, dv, eps)
    assert low <= val + 1e-9 * (1 + abs(val)), (dv, low - val)
    assert val <= upper, (dv, val - upper)


def _certify(ch, dv):
    """The exact value is attained, and the maximum is at most that value
    plus ``_ROOT_SLACK``, the margin ``cutting_plane`` adds to each cut's
    dual bound: the oracle, started from the exact solve's point, prunes
    every interval at ``eps = _ROOT_SLACK``.  A midpoint may beat the exact
    value by the roundoff of evaluating the objective, which the bound then
    carries."""
    p, val = _solve_attained(ch, dv)
    _, low, upper = inner_bnb(ch, dv, _ROOT_SLACK, incumbent=(p, val))
    assert upper <= val + _ROOT_SLACK + 1e-13 * (1 + abs(val)), (dv, upper - val)


def _near_ties(ch, lam, mu2, steps=40):
    """Multipliers on both sides of a jump of the maximizer as ``mu1``
    moves with ``lam`` and ``mu2`` fixed, found by bisection; there two
    local maxima have nearly the same value.  Empty if no jump is seen."""
    def argmax(mu1):
        return np.array(solve_inner(ch, DualVariables(mu1, mu2, *lam))[0])

    grid = np.linspace(0.0, 2.0, 9)
    p = [argmax(m) for m in grid]
    jumps = [np.abs(b - a).max() / (1 + np.abs(b).max()) for a, b in zip(p, p[1:])]
    i = int(np.argmax(jumps))
    lo, hi, p_lo, p_hi = grid[i], grid[i + 1], p[i], p[i + 1]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        p_mid = argmax(mid)
        if np.abs(p_mid - p_lo).max() >= np.abs(p_hi - p_mid).max():
            hi, p_hi = mid, p_mid
        else:
            lo, p_lo = mid, p_mid
    if np.abs(p_hi - p_lo).max() <= 1e-3 * (1 + np.abs(p_hi).max()):
        return []
    return [DualVariables(m, mu2, *lam) for m in (lo, hi)]


class TestExactInner:
    # the resultant solve against the interval branch-and-bound oracle
    @pytest.mark.parametrize("case", _INTERFERENCE_FREE)
    def test_interference_free_receiver_2(self, case, fig1, fig3):
        # with x_2 = 0 (a cross link into receiver 2 that is dead or
        # orthogonal to h22) B_2 = (1 + g_2 p_2)(1 + n_2 p_1), so both
        # stationarity polynomials share a root in t1 and the 5x5 Sylvester
        # determinant vanishes, or is roundoff, and finds no critical point
        ch = _interference_free(case, fig1, fig3)
        g, x, n, _ = _proper_gains(ch)
        assert x[1] <= 1e-30 * g[1] * n[1]
        rng = np.random.default_rng(41)
        for _ in range(30):
            dv = DualVariables(*rng.uniform(0, 2, 2), *10 ** rng.uniform(-3, 0, 2))
            _check_against_oracle(ch, dv, 1e-6)

    @pytest.mark.parametrize("case", [
        "priced-out-1", "priced-out-2", "collinear", "dead-h11", "dead-h22",
        "no-cross-links",
    ])
    def test_degenerate_links(self, case, fig1):
        ch = {
            "collinear": _collinear(fig1),
            "dead-h11": replace(fig1, h11=0 * fig1.h11),
            "dead-h22": replace(fig1, h22=0 * fig1.h22),
            "no-cross-links": replace(fig1, h12=0 * fig1.h12, h21=0 * fig1.h21),
        }.get(case, fig1)
        g = _proper_gains(ch)[0]
        rng = np.random.default_rng(42)
        for _ in range(20):
            mu = rng.uniform(0.1, 2, 2)
            lam = 10 ** rng.uniform(-3, 0, 2)
            if case.startswith("priced-out"):  # peak_k = 0
                k = int(case[-1]) - 1
                lam[k] = mu[k] * g[k] / np.log(2) * rng.uniform(1, 2)
            dv = DualVariables(*mu, *lam)
            if case.startswith(("priced-out", "dead")):
                assert 0.0 in _problem(ch, dv).peak
            _check_against_oracle(ch, dv, 1e-6)

    def test_near_ties(self, fig1, fig2, fig3):
        rng = np.random.default_rng(43)
        ties = []
        for ch in (fig1, fig2, fig3):
            for _ in range(4):
                ties += [(ch, dv) for dv in _near_ties(
                    ch, 10 ** rng.uniform(-2, -0.5, 2), rng.uniform(0.2, 2))]
        assert len(ties) >= 6
        for ch, dv in ties:
            _check_against_oracle(ch, dv, 1e-6)

    @pytest.mark.slow
    def test_matches_bnb_oracle(self, fig1, fig2, fig3):
        # presets, interference-free receivers and random channels with 1-4
        # antennas at SNR 0.1-1e3; mu ~ U(0, 2), lam log-uniform in
        # [1e-4, 10], plus the near-tie multipliers on both sides of each
        # jump of the maximizer and the multipliers the cutting plane visits,
        # down to the lam floor; those two are certified at the root slack,
        # which also bounds any incumbent the oracle finds there; they come
        # from cold points at three betas
        rng = np.random.default_rng(44)
        fixed = [fig1, fig2, fig3, _swap_users(fig3), replace(fig1, h21=0 * fig1.h21),
                 replace(fig1, h21=_orthogonal(fig1.h21, fig1.h22)), _collinear(fig1)]
        hard = [(ch, cut.dv) for ch in fixed[:3] for beta in (0.25, 0.5, 0.75)
                for cut in cutting_plane(ch, RateProfile.from_beta(beta), eps=2e-2).cuts]
        pairs = []
        for i in range(84):
            ch = fixed[i] if i < len(fixed) else _scaled_channel(rng)
            lam = 10 ** rng.uniform(-4, 1, (30, 2))
            pairs += [(ch, DualVariables(*mu, *l), 1e-6 if j < 3 else 1e-4)
                      for j, (mu, l) in enumerate(zip(rng.uniform(0, 2, (30, 2)), lam))]
            hard += [(ch, dv) for dv in _near_ties(
                ch, 10 ** rng.uniform(-3, 0, 2), rng.uniform(0.2, 2))]
        assert len(pairs) >= 2500
        assert sum(eps == 1e-6 for _, _, eps in pairs) >= 250
        for pair in pairs:
            _check_against_oracle(*pair)
        assert len(hard) >= 150
        for ch, dv in hard:
            _certify(ch, dv)


def _solver_imports(source):
    """What ``source`` imports from ``tinregion.timesharing`` or of the
    proper-rate kernel ``tinregion.rates._proper_gains`` and
    ``_proper_rates`` and the receiver reduction ``tinregion.channel._gram``
    under it, and where it names that module, its ``_InnerProblem`` or the
    kernel."""
    module = timesharing.__name__
    defined = {name for name, obj in vars(timesharing).items()
               if getattr(obj, "__module__", None) == module} | {"timesharing"}
    kernel = {"_proper_gains", "_proper_rates", "_gram"}
    watched = {"timesharing", "_InnerProblem"} | kernel
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith(module)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(module):
            found.append(node.module)
        elif isinstance(node, ast.ImportFrom):
            names = kernel | defined if node.module == "tinregion" else kernel
            found += [a.name for a in node.names if a.name in names]
        elif isinstance(node, ast.Name) and node.id in watched:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in watched:
            found.append(node.attr)
    return found


def test_oracle_shares_no_code_with_the_solver():
    # conftest's inner_bnb certifies _ROOT_SLACK, so a fault in the solve
    # must not move it too; the solve's objective is the proper-rate kernel
    # of tinregion.rates, so the oracle must not read that either
    assert _solver_imports("from tinregion.timesharing import _InnerProblem")
    assert _solver_imports("import tinregion\ntinregion.timesharing._InnerProblem")
    assert _solver_imports("from tinregion import DualVariables, timesharing")
    assert _solver_imports("from tinregion import rates\nrates._proper_rates(g, 1, 2)")
    conftest = (Path(__file__).parent / "conftest.py").read_text()
    assert _solver_imports(conftest) == []
    for name in ("_proper_gains", "_proper_rates"):
        assert _solver_imports(f"{conftest}\nfrom tinregion.rates import RatePoint, {name}\n")
    assert _solver_imports(f"{conftest}\nfrom tinregion.channel import _gram\n")


def _all_pieces(coef):
    """The colleague eigensolve of every piece, none skipped: the oracle of
    the root-free pieces that ``_colleague_roots`` leaves out."""
    size = np.abs(coef).max(axis=1)
    lead = coef[:, -1]
    lead = np.where(np.abs(lead) > 1e-14 * size, lead, 1e-14 * size + 1e-300)
    colleague = np.repeat(_COLLEAGUE[None], len(coef), axis=0)
    colleague[:, :, -1] -= coef[:, :-1] / lead[:, None] * _COLLEAGUE_WEIGHT
    z = np.linalg.eigvals(colleague)
    keep = (np.abs(z.imag) <= 1e-3) & (np.abs(z.real) <= 1.0 + 1e-9)
    t = _EDGES[:-1, None] + 0.5 * np.diff(_EDGES)[:, None] * (1.0 + z.real.clip(-1, 1))
    return t[keep]


def _inner_problems(monkeypatch, run):
    """Every inner problem whose resultant ``run()`` solves."""
    seen, stationary = [], timesharing._stationary_t2

    def spy(prob):
        seen.append(prob)
        return stationary(prob)

    with monkeypatch.context() as m:
        m.setattr(timesharing, "_stationary_t2", spy)
        run()
    return seen


class TestPieceExclusion:
    """The pieces that ``_colleague_roots`` proves root-free change nothing:
    ``_stationary_t2`` returns exactly the array of the full solve."""

    @staticmethod
    def _check(monkeypatch, probs):
        """Compares every solve with the oracle; returns the candidates."""
        total = 0
        for prob in probs:
            got = timesharing._stationary_t2(prob)
            with monkeypatch.context() as m:
                m.setattr(timesharing, "_colleague_roots", _all_pieces)
                want = timesharing._stationary_t2(prob)
            assert np.array_equal(got, want), (prob.mu, prob.lam)
            total += len(got)
        return total

    @pytest.mark.parametrize("eps", [2e-2, 1e-3])
    def test_sweeps(self, fig1, fig2, fig3, monkeypatch, eps):
        # each preset's sweep and that of the preset with its users swapped
        for ch in (fig1, fig2, fig3):
            probs = _inner_problems(monkeypatch, lambda: [sweep_region(
                c, "proper-timesharing", np.linspace(0, 1, 21), eps=eps)
                for c in (ch, _swap_users(ch))])
            assert len(probs) >= 40
            self._check(monkeypatch, probs)

    @pytest.mark.parametrize("case", ["h21-zeroed", "h12-zeroed", "orthogonal", "collinear"])
    def test_degenerate_cross_links(self, case, fig1, monkeypatch):
        ch = {
            "h21-zeroed": replace(fig1, h21=0 * fig1.h21),
            "h12-zeroed": replace(fig1, h12=0 * fig1.h12),
            "orthogonal": replace(fig1, h12=_orthogonal(fig1.h12, fig1.h11),
                                  h21=_orthogonal(fig1.h21, fig1.h22)),
            "collinear": _collinear(fig1),
        }[case]
        rng = np.random.default_rng(45)
        dvs = [DualVariables(*rng.uniform(0, 2, 2), *10 ** rng.uniform(-3, 0, 2))
               for _ in range(20)]
        probs = _inner_problems(monkeypatch, lambda: (
            cutting_plane(ch, RateProfile(0.5, 0.5), eps=2e-2),
            [solve_inner(ch, dv) for dv in dvs]))
        self._check(monkeypatch, probs)

    def test_lam_floor(self, fig1, fig2, fig3, monkeypatch):
        # at the lam floor the resultant can be pure roundoff, and then
        # hundreds of roots are candidates
        rng = np.random.default_rng(46)
        dvs = [DualVariables(20.0, 1.03e-9, 2.5e-8, LAMBDA_FLOOR)]
        dvs += [DualVariables(*rng.uniform(0, 20, 2), LAMBDA_FLOOR,
                              LAMBDA_FLOOR * 10 ** rng.uniform(0, 2)) for _ in range(20)]
        probs = _inner_problems(monkeypatch, lambda: [
            solve_inner(ch, dv) for ch in (fig1, fig2, fig3) for dv in dvs])
        assert self._check(monkeypatch, probs) >= 200

    @pytest.mark.parametrize("end", [-1.0, 1.0])
    def test_root_near_a_piece_end_is_kept(self, end):
        # a root at Re z = +-1 with Im z up to 1e-3 lies in the window of
        # kept roots; alone, and times factors with roots far off the piece
        # that weight the constant term, every piece keeps it
        cheb = np.polynomial.chebyshev
        rng = np.random.default_rng(47 + int(end))
        for im in (0.0, 1e-4, 0.999e-3):
            for far in range(12):
                rest = rng.choice([-1, 1], far) * 10 ** rng.uniform(0.2, 2, far)
                roots = [end + 1j * im, end - 1j * im, *rest]
                c = cheb.chebfromroots(roots).real
                coef = np.tile(np.r_[c, np.zeros(14 - len(c))], (len(_EDGES) - 1, 1))
                coef *= 10 ** rng.uniform(-5, 5, (len(coef), 1))
                got = _colleague_roots(coef)
                assert np.array_equal(got, _all_pieces(coef))
                piece_end = _EDGES[1:] if end > 0 else _EDGES[:-1]
                near = np.abs(got[:, None] - piece_end) <= 1e-6 * np.diff(_EDGES)
                assert near.any(axis=0).all(), (im, far)
        # a linear series c_0 + c_1 T_1 with its root at the end has
        # |c_0| / (|c_1| rho) = 0.969, the nearest to a skipped piece
        coef = np.tile(np.r_[1.0, -end, np.zeros(12)], (len(_EDGES) - 1, 1))
        assert len(_colleague_roots(coef)) >= len(coef)

    def test_chebyshev_tables_match_numpy(self):
        # built from cos(k arccos x) and the tridiagonal colleague matrix, so
        # that importing the package loads no numpy.polynomial
        cheb = np.polynomial.chebyshev
        assert np.abs(_FIT - np.linalg.inv(cheb.chebvander(_NODES, 13))).max() <= 1e-15
        assert np.abs(_COLLEAGUE - cheb.chebcompanion(np.eye(14)[-1])).max() <= 1e-15

    def test_root_off_the_axis_is_kept(self):
        # z^2 + d^2 = (1/2 + d^2) T_0 + T_2 / 2 has its roots +-i d inside
        # the window; |c_0| exceeds |c_2|, so a bound on [-1, 1] alone would
        # skip it, but not |c_2| rho^2
        d = 0.999e-3
        coef = np.tile(np.r_[0.5 + d * d, 0.0, 0.5, np.zeros(11)], (len(_EDGES) - 1, 1))
        got = _colleague_roots(coef)
        assert np.array_equal(got, _all_pieces(coef))
        mid = 0.5 * (_EDGES[1:] + _EDGES[:-1])
        assert (np.abs(got[:, None] - mid) <= 1e-9).sum(axis=0).min() == 2


class TestDualValue:
    def test_weak_duality(self, fig1):
        prof = RateProfile(0.5, 0.5)
        primal = balance_pure_proper(fig1, prof, eps=1e-6).R  # pure <= ts <= dual
        dv = DualVariables(1.0, 1.0, 0.1, 0.1)
        assert dual_value(fig1, dv) >= primal - 1e-3

    def test_convexity_along_segments(self, fig1):
        rng = np.random.default_rng(33)
        for _ in range(10):
            mu_a = rng.uniform(0, 2)
            a = DualVariables(mu_a, 2 - mu_a, rng.uniform(0.02, 0.4),
                              rng.uniform(0.02, 0.4))
            mu_b = rng.uniform(0, 2)
            b = DualVariables(mu_b, 2 - mu_b, rng.uniform(0.02, 0.4),
                              rng.uniform(0.02, 0.4))
            mid = DualVariables(
                0.5 * (a.mu1 + b.mu1),
                0.5 * (a.mu2 + b.mu2),
                0.5 * (a.lam1 + b.lam1),
                0.5 * (a.lam2 + b.lam2),
            )
            va = dual_value(fig1, a)
            vb = dual_value(fig1, b)
            vm = dual_value(fig1, mid)
            assert vm <= 0.5 * (va + vb) + 1e-9

    def test_zero_budget(self, fig1):
        from tinregion.channel import SimoChannel

        ch0 = SimoChannel(fig1.h11, fig1.h12, fig1.h21, fig1.h22, 0.0, 0.0)
        dv = DualVariables(1.0, 1.0, 1e3, 1e3)
        assert abs(dual_value(ch0, dv)) <= 1e-9


class _Stop(Exception):
    pass


def _masters(monkeypatch, run, first=False):
    """The ``(a, b, lo, hi, work)`` of every master LP that ``run()`` solves,
    as ``cutting_plane`` and ``primal_recovery`` pass them (``work`` is the
    previous master's working set, ``None`` at a cold start), or of the
    first one only, where ``run`` is stopped."""
    seen = []

    def spy(a, b, lo, hi, work=None):
        seen.append((a, b, lo, hi, work))
        if first:
            raise _Stop
        return _master(a, b, lo, hi, work)

    with monkeypatch.context() as m:
        m.setattr(timesharing, "_master", spy)
        try:
            run()
        except _Stop:
            pass
    return seen


def _random_cuts(rng, ch, n, low=0.0, high=3.0):
    """Cuts at random powers between ``low`` and ``high`` times the budgets.
    The master reads only their powers and rates."""
    p = rng.uniform(low, high, (n, 2)) * [ch.p1, ch.p2]
    if low == 0.0:
        p *= rng.uniform(size=(n, 2)) < 0.75  # a quarter of the users silent
    return [Cut(dv=None, p_star=(float(p1), float(p2)),
                rates=rate_proper(ch, p1, p2), value=0.0) for p1, p2 in p]


def _multipliers(profile, y):
    """``(mu1, mu2, lam1, lam2)`` at the master's variables ``y``: ``(mu_j,
    lam1, lam2)`` with the other ``mu``, that of the larger rho (``mu1`` on a
    tie), from ``rho . mu = 1``, or ``(lam1, lam2)`` at the one ``mu`` of a
    single-user profile."""
    rho1, rho2 = profile.rho1, profile.rho2
    if rho1 > 0 and rho2 > 0:
        if rho1 >= rho2:
            return np.r_[(1.0 - rho2 * y[0]) / rho1, y]
        return np.r_[y[0], (1.0 - rho1 * y[0]) / rho2, y[1:]]
    return np.r_[1.0 / rho1 if rho1 > 0 else 0.0, 1.0 / rho2 if rho2 > 0 else 0.0, y]


def _at_unit_budgets(ch):
    """``ch`` with transmitter k's links times ``sqrt(P_k)`` and both
    budgets 1, the same rates in units of the budgets."""
    s1, s2 = np.sqrt(ch.p1), np.sqrt(ch.p2)
    return replace(ch, h11=ch.h11 * s1, h12=ch.h12 * s2, h21=ch.h21 * s1,
                   h22=ch.h22 * s2, p1=1.0, p2=1.0)


def _check_rows(args, ch, profile, cuts, rng):
    """The master's rows are the cuts of conftest's fixed strategies at unit
    budgets, then those of ``cuts``: at random points of the box each row's
    value ``a_i . y + b_i`` is its ``mu . r + lam . (1 - p / P)``, with the
    fixed strategies' rates from the closed form of ``proper_rates``."""
    a, b, lo, hi, _ = args
    unit = _at_unit_budgets(ch)
    powers = np.array(fixed_strategies(unit, profile))
    fixed = np.c_[np.transpose(proper_rates(unit, *powers.T)), 1 - powers]
    w = np.r_[fixed, [[*c.rates, 1 - c.p_star[0] / ch.p1, 1 - c.p_star[1] / ch.p2]
                      for c in cuts]]
    assert a.shape == (len(w), len(lo))
    for y in rng.uniform(lo, hi, (5, len(lo))):
        z = _multipliers(profile, y)
        assert np.all(np.abs(a @ y + b - w @ z) <= 1e-12 * (np.abs(w) @ np.abs(z) + 1))


def _check_master(a, b, lo, hi, work=None):
    """``_master`` against HiGHS on one cut model, started from ``work``;
    returns its minimizer."""
    y, bound, final, _ = _master(a, b, lo, hi, work)
    ref = linprog(np.eye(a.shape[1] + 1)[-1], A_ub=np.c_[a, -np.ones(len(b))],
                  b_ub=-b, bounds=[*zip(lo, hi), (None, None)], method="highs")
    assert ref.success
    model = np.max(a @ y + b)
    assert np.all(lo <= y) and np.all(y <= hi)
    assert abs(model - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
    # weak duality, up to the roundoff of evaluating both sides
    assert bound <= model + 1e-15 * (1 + abs(model))
    assert model - bound <= 1e-10 * (1 + abs(model))
    # the final working set is optimal: restarted from it, nothing pivots
    with pytest.MonkeyPatch.context() as m:
        m.setattr(timesharing, "_MAX_PIVOTS", 1)
        again = _master(a, b, lo, hi, final)
    assert np.array_equal(again[0], y) and np.array_equal(again[2], final)
    return y


def _pivots(a, b, lo, hi, work):
    """The pivots ``_master`` makes from ``work``: one less than the fewest
    its cap may allow."""
    for cap in range(1, 5):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(timesharing, "_MAX_PIVOTS", cap)
            try:
                _master(a, b, lo, hi, work)
            except ConvergenceError:
                continue
        return cap - 1
    return math.inf


class TestMaster:
    """The NumPy master LP of ``cutting_plane`` against HiGHS."""

    def test_sweep_masters(self, fig1, fig2, fig3, monkeypatch):
        # each master as cutting_plane calls it: the first of each point from
        # the cold start, the others from the previous master's working set
        for ch, eps in itertools.product((fig1, fig2, fig3), (2e-2, 1e-3)):
            masters = _masters(monkeypatch, lambda: sweep_region(
                ch, "proper-timesharing", np.linspace(0, 1, 21), eps=eps))
            assert sum(args[4] is None for args in masters) == 21
            assert len(masters) >= 63
            for args in masters:
                _check_master(*args)
            # each point's last master is its recovery: the previous one's
            # rows plus the two corners, warm from its working set
            last = [i for i, args in enumerate(masters)
                    if i + 1 == len(masters) or masters[i + 1][4] is None]
            assert len(last) == 21
            pivots = []
            for i in last:
                a, b, lo, hi, work = masters[i]
                assert work is not None and len(b) == len(masters[i - 1][1]) + 2
                pivots.append(_pivots(a, b, lo, hi, work))
            assert np.median(pivots) <= 1 and max(pivots) <= 3, pivots

    @pytest.mark.parametrize("rho", [(0.3, 0.7), (1.0, 0.0), (0.0, 1.0)])
    def test_random_cut_sets(self, rho, monkeypatch):
        rng = np.random.default_rng(int(10 * rho[0]))
        for _ in range(20):
            ch = random_channel(rng, p=rng.uniform(1.0, 100.0))
            cuts = _random_cuts(rng, ch, rng.integers(1, 40))
            (args,) = _masters(monkeypatch, lambda: cutting_plane(
                ch, RateProfile(*rho), eps=1e-2, seed_cuts=cuts), first=True)
            a, b, lo, hi, work = args
            assert work is None
            assert a.shape[1] == (3 if 0 < rho[0] < 1 else 2)
            _check_rows(args, ch, RateProfile(*rho), cuts, rng)
            _check_master(a, b, lo, hi)
            # duplicated cuts, and parallel copies below and above them
            _check_master(np.repeat(a, 2, axis=0), np.repeat(b, 2), lo, hi)
            shift = rng.uniform(-1.0, 1.0, len(b))
            _check_master(np.r_[a, a], np.r_[b, b + shift], lo, hi)

    @pytest.mark.parametrize("low, high, at", [(0.0, 0.9, "floor"), (1.1, 3.0, "max")])
    def test_optimum_on_the_lambda_box(self, fig1, monkeypatch, low, high, at):
        # cuts at powers past the budgets fall with lam, so the minimum sits at
        # lam_max.  Cuts at powers inside them rise with lam, so alone their
        # minimum sits at LAMBDA_FLOOR; the fixed strategies in front of them,
        # past the budgets, fall with lam and lift the lam of every user with
        # a positive weight off the floor
        rng = np.random.default_rng(5)
        for rho in [(0.5, 0.5), (1.0, 0.0)]:
            cuts = _random_cuts(rng, fig1, 12, low, high)
            (args,) = _masters(monkeypatch, lambda: cutting_plane(
                fig1, RateProfile(*rho), eps=1e-2, seed_cuts=cuts), first=True)
            _check_rows(args, fig1, RateProfile(*rho), cuts, rng)
            a, b, lo, hi, _ = args
            y = _check_master(a, b, lo, hi)
            assert hi[-1] == max(_lambda_max(_at_unit_budgets(fig1), RateProfile(*rho)),
                                 10 * LAMBDA_FLOOR)
            if at == "max":
                assert np.allclose(y[-2:], hi[-2:], rtol=1e-12, atol=0)
                continue
            alone = _check_master(a[-len(cuts):], b[-len(cuts):], lo, hi)
            assert np.allclose(alone[-2:], LAMBDA_FLOOR, rtol=1e-12, atol=0)
            assert np.all(y[-2:][np.array(rho) > 0] >= 1e3 * LAMBDA_FLOOR)

    def test_pivot_cap_raises_typed(self, monkeypatch):
        # min max(y1 + y2, 0.5 - y1, 0.5 - y2) over [0, 1]^2 is 1/3 at
        # y = (1/6, 1/6), where all three cuts are active; the cold start
        # holds the first cut and both lower box rows, so it needs two pivots
        # and one is too few
        a = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b, lo, hi = np.array([0.0, 0.5, 0.5]), np.zeros(2), np.ones(2)
        y = _check_master(a, b, lo, hi)
        assert np.allclose(y, 1 / 6, rtol=1e-14)
        monkeypatch.setattr(timesharing, "_MAX_PIVOTS", 1)
        with pytest.raises(ConvergenceError, match="pivots"):
            _master(a, b, lo, hi)

    def test_badly_scaled_cuts(self, monkeypatch):
        # first-coordinate slopes spread over 1e0-1e10 and boxes up to 1e8
        # wide, cold and warm: the bound may be loose here, but it is never
        # above the model value, and no solve reaches the pivot cap
        rng = np.random.default_rng(9)
        for k in range(150):
            ch = random_channel(rng, p=rng.uniform(1.0, 100.0))
            cuts = _random_cuts(rng, ch, rng.integers(2, 40))
            rho = [(0.3, 0.7), (1.0, 0.0), (0.5, 0.5)][k % 3]
            (args,) = _masters(monkeypatch, lambda: cutting_plane(
                ch, RateProfile(*rho), eps=1e-2, seed_cuts=cuts), first=True)
            a, b, lo, hi, _ = args
            a = a.copy()
            a[:, 0] *= 10 ** rng.uniform(0, 10, len(b))
            hi = lo + (hi - lo) * 10 ** rng.uniform(0, 8, len(hi))
            _, _, work, _ = _master(a[:-1], b[:-1], lo, hi)
            for start in (None, work):
                y, bound, _, _ = _master(a, b, lo, hi, start)
                model = np.max(a @ y + b)
                assert np.all(lo <= y) and np.all(y <= hi)
                assert bound <= model + 1e-15 * (1 + abs(model))


class TestCuttingPlane:
    # the dual values the HiGHS master reached at eps = 1e-2; the single-user
    # corner is the one test_single_user_profile pins
    @pytest.mark.parametrize("rho, want", [
        ((0.5, 0.5), 6.007211264149378), ((1.0, 0.0), 4.22659234751577),
    ])
    def test_needs_no_linprog(self, fig1, monkeypatch, rho, want):
        def no_linprog(*args, **kwargs):
            raise AssertionError("the time-sharing solver called linprog")

        monkeypatch.setattr(timesharing, "linprog", no_linprog)
        R, _, _ = cutting_plane(fig1, RateProfile(*rho), eps=1e-2)
        assert abs(R - want) <= 1e-2
        # the recoveries of a sweep solve no LP through SciPy either
        curve = sweep_region(fig1, "proper-timesharing", np.linspace(0, 1, 21), eps=1e-2)
        _, got = curve.samples[round(20 * rho[0])]
        assert abs(min(r / w for r, w in zip(got, rho) if w > 0) - want) <= 2e-2

    def test_balanced_fig1_consistency(self, fig1):
        prof = RateProfile(0.5, 0.5)
        eps = 1e-2
        R, dv, cuts = cutting_plane(fig1, prof, eps=eps)
        pure = balance_pure_proper(fig1, prof, eps=1e-6).R
        assert R >= pure - eps  # time sharing can only help
        sol = primal_recovery(cuts, prof, fig1)
        rec = min(sol.rates.r1 / prof.rho1, sol.rates.r2 / prof.rho2)
        assert R - rec <= 2 * eps  # dual certificate close to recovered primal
        p1, p2 = sol.average_powers()
        assert p1 <= fig1.p1 + 1e-6 and p2 <= fig1.p2 + 1e-6

    def test_balanced_fig2_reference_value(self, fig2):
        # published value for this scenario is reproducible
        prof = RateProfile(0.5, 0.5)
        R, _, cuts = cutting_plane(fig2, prof, eps=1e-2)
        sol = primal_recovery(cuts, prof, fig2)
        assert abs(sol.rates.r1 - 3.59405774404157) <= 2e-2
        assert abs(sol.rates.r2 - 3.59405774404157) <= 2e-2

    def test_single_user_profile(self, fig1):
        prof = RateProfile(1.0, 0.0)
        R, _, cuts = cutting_plane(fig1, prof, eps=1e-2)
        assert abs(R - 4.22659234751577) <= 1e-2
        sol = primal_recovery(cuts, prof, fig1)
        assert len(sol.entries) == 1
        tau, p1, p2 = sol.entries[0]
        assert abs(tau - 1.0) <= 1e-9
        assert abs(p1 - fig1.p1) <= 1e-3 and p2 <= 1e-6

    def test_no_floor_chase(self, fig1, fig2, fig3, monkeypatch):
        # from an empty pool Kelley's method climbed off the lambda floor by
        # a factor of 4-10 in lam per cut: 29-31 cuts per balanced point, and
        # 45 inner solves, one per cut, in a 5-beta fig1 sweep
        for ch in (fig1, fig2, fig3):
            assert len(cutting_plane(ch, RateProfile(0.5, 0.5), eps=2e-2).cuts) <= 15
        pools = []

        def solve(*args, **kwargs):
            pools.append(cutting_plane(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(region, "cutting_plane", solve)
        sweep_region(fig1, "proper-timesharing", np.linspace(0, 1, 5), eps=2e-2)
        # the sweep passes its pool along, so the last holds every cut
        assert len(pools) == 5 and len(pools[-1].cuts) <= 30

    def test_rejects_eps_within_root_slack(self, fig1):
        # the certified gap never falls below the slack added to each cut
        with pytest.raises(ValidationError, match="root slack"):
            cutting_plane(fig1, RateProfile(0.5, 0.5), eps=_ROOT_SLACK)

    def test_user_swap_symmetry(self, fig3):
        # the engine treats p1 and p2 differently; the swapped fig3 has a
        # dead cross link at receiver 2, so every inner row is degenerate
        swapped = _swap_users(fig3)
        assert _proper_gains(swapped)[2][1] == 0.0
        eps = 2e-2
        got, _, _ = cutting_plane(swapped, RateProfile(0.7, 0.3), eps=eps)
        want, _, _ = cutting_plane(fig3, RateProfile(0.3, 0.7), eps=eps)
        assert abs(got - want) <= eps


@pytest.fixture(scope="module")
def recoveries(fig1, fig2, fig3):
    """Every recovered mixture of 21-beta sweeps, warm-started cut pools
    included, as ``(sol, upper, eps, profile, ch, cuts)`` with the dual
    upper bound of the same point: on the presets at both eps, on dead-link
    and zero-budget channels, and on random channels with 1-4 antennas and
    budgets from 1e-2 to 1e3."""
    seen = []

    def solve(ch, profile, eps, seed_cuts=None):
        res = cutting_plane(ch, profile, eps=eps, seed_cuts=seed_cuts)
        seen.append((res.solution, res.upper, eps, profile, ch, res.cuts))
        return res

    rng = np.random.default_rng(48)
    runs = [(ch, eps) for ch in (fig1, fig2, fig3) for eps in (2e-2, 1e-3)]
    runs += [(replace(fig1, **{f: getattr(fig1, f) * 0}), 2e-2)
             for f in ("h11", "h22", "p1", "p2")]
    runs += [(random_channel(rng, *rng.integers(1, 5, 2), p=p), 2e-2)
             for p in 10.0 ** np.r_[-2.0, 3.0, rng.uniform(-2, 3, 6)]]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(region, "cutting_plane", solve)
        for ch, eps in runs:
            sweep_region(ch, "proper-timesharing", np.linspace(0, 1, 21), eps=eps)
    assert len(seen) == 21 * len(runs)
    return seen


def _scaling(sol, profile):
    """The common scaling ``min r_k / rho_k`` of a recovered mixture."""
    rho = (profile.rho1, profile.rho2)
    return min(r / w for r, w in zip(sol.rates, rho) if w > 0)


class TestPrimalRecovery:
    def test_json_schema(self, fig1):
        prof = RateProfile(0.5, 0.5)
        _, _, cuts = cutting_plane(fig1, prof, eps=2e-2)
        sol = primal_recovery(cuts, prof, fig1)
        d = sol.to_dict()
        assert set(d) == {"entries", "rates"}
        assert all(set(e) == {"tau", "p1", "p2"} for e in d["entries"])
        assert len(d["rates"]) == 2

    def test_at_most_four_strategies(self, recoveries):
        # against the HiGHS LP over the same strategies, which conftest
        # builds on its own
        for sol, _, _, profile, ch, cuts in recoveries:
            assert 1 <= len(sol.entries) <= 4
            assert abs(sum(t for t, _, _ in sol.entries) - 1.0) <= 1e-9
            p1, p2 = sol.average_powers()
            assert p1 <= ch.p1 * (1 + 1e-9) and p2 <= ch.p2 * (1 + 1e-9)
            assert abs(_scaling(sol, profile) - highs_recovery(cuts, profile, ch)) <= 1e-7

    def test_matches_cold_recovery(self, recoveries):
        # the mixture of cutting_plane's warm final master is the one that
        # primal_recovery's cold master finds over the same cuts
        for sol, _, _, profile, ch, cuts in recoveries:
            cold = primal_recovery(cuts, profile, ch)
            assert abs(_scaling(sol, profile) - _scaling(cold, profile)) <= 1e-10

    def test_certificate(self, recoveries):
        # the recovery holds every row of the last master, so the recovered
        # scaling is at least the dual upper bound minus eps, with no slack;
        # one that left the fixed strategies out fell up to 1.6 eps below it
        for sol, upper, eps, profile, ch, _ in recoveries:
            R = _scaling(sol, profile)
            assert upper - eps <= R <= upper, (profile, ch.p1, upper - eps - R)


class TestExtremeWeights:
    # profiles within 1e-12 of a single user's: the master's slopes in mu
    # stay at most 1 in size whichever weight is tiny, and the mixture keeps
    # the small weight that serves the tiny rho_k, without which R is 0
    @pytest.mark.parametrize("beta", [1e-12, 1e-9, 1e-6, 1 - 1e-9, 1 - 1e-12])
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_certificate(self, name, beta, request):
        ch, profile, eps = request.getfixturevalue(name), RateProfile.from_beta(beta), 1e-2
        res = cutting_plane(ch, profile, eps=eps)
        R = _scaling(res.solution, profile)
        assert res.upper - eps <= R <= res.upper, (res.upper, R)


class TestZeroDirectLink:
    # A dead direct link leaves its user at rate 0: a balanced profile
    # collapses to the origin and only the other user's corner
    # log2(1 + P |h_kk|^2) survives.
    @pytest.mark.parametrize("dead, beta, want", [
        ("h22", 0.5, (0.0, 0.0)), ("h22", 1.0, (4.22659234751577, 0.0)),
        ("h11", 0.5, (0.0, 0.0)), ("h11", 0.0, (0.0, 4.77542888580219)),
    ])
    def test_timesharing_sweep(self, fig1, dead, beta, want):
        ch = replace(fig1, **{dead: np.zeros_like(getattr(fig1, dead))})
        curve = sweep_region(ch, "proper-timesharing", [beta], eps=1e-2)
        got = curve.samples[0][1]
        assert abs(got.r1 - want[0]) <= 1e-2 and abs(got.r2 - want[1]) <= 1e-2


class TestExtremeScales:
    # Tier-1 turns every RuntimeWarning into an error, so these sweeps also
    # check that no overflow or division by zero happens on the way.
    @pytest.mark.parametrize("budgets, corners", [
        ({"p1": 1e-320}, {0.0: (0.0, 4.775428885802185)}),
        ({"p2": 1e-320}, {1.0: (4.226591335969697, 0.0)}),
        ({"p1": 1e-310, "p2": 1e-310}, {}),
    ])
    def test_subnormal_budgets(self, fig1, budgets, corners):
        # a subnormal budget gives subnormal gains at unit budgets, whose
        # peak power once overflowed; its user reaches no rate, so only the
        # other user's corner leaves the origin
        ch = replace(fig1, **budgets)
        curve = sweep_region(ch, "proper-timesharing", np.linspace(0, 1, 5), eps=2e-2)
        for beta, got in curve.samples:
            want = corners.get(beta, (0.0, 0.0))
            assert np.abs(np.subtract(got, want)).max() <= 1e-9, (beta, got)

    @pytest.mark.parametrize("scale", [1e74, 1e76])
    def test_near_overflow_links(self, fig1, scale):
        # every link times 1e74 or 1e76 puts |h_kk|^2 P_k |h_kj|^2 P_j near
        # 1e298-1e306, and the fixed strategies' powers then overflowed the
        # proper rate's numerator before its ratio was taken
        ch = replace(fig1, **{f: getattr(fig1, f) * scale
                              for f in ("h11", "h12", "h21", "h22")})
        profile, eps = RateProfile(0.5, 0.5), 2e-2
        res = cutting_plane(ch, profile, eps=eps)
        R = _scaling(res.solution, profile)
        assert res.upper - eps <= R <= res.upper
        assert R >= balance_pure_proper(ch, profile).R - eps


class TestPureZeroLinkOrBudget:
    # A user with a positive weight that can reach no rate, through a dead
    # direct link or a zero budget, pins pure balancing to the origin; the
    # single-user corners keep the interference-free rate.
    @pytest.mark.parametrize("zeroed, beta, want", [
        ("h22", 0.5, (0.0, 0.0)), ("h11", 0.5, (0.0, 0.0)),
        ("p1", 0.5, (0.0, 0.0)), ("p2", 0.5, (0.0, 0.0)),
        ("h22", 1.0, (4.226591335969697, 0.0)),
        ("h11", 0.0, (0.0, 4.775428885802185)),
    ])
    def test_pure_balancing(self, fig1, zeroed, beta, want):
        old = getattr(fig1, zeroed)
        ch = replace(fig1, **{zeroed: old * 0})
        res = balance_pure_proper(ch, RateProfile.from_beta(beta))
        assert abs(res.rates.r1 - want[0]) <= 1e-12
        assert abs(res.rates.r2 - want[1]) <= 1e-12
        if want == (0.0, 0.0):
            assert (res.R, res.p1, res.p2) == (0.0, 0.0, 0.0)
        ts = sweep_region(ch, "proper-timesharing", [beta], eps=1e-2).samples[0][1]
        assert res.rates.r1 <= ts.r1 + 1e-2 and res.rates.r2 <= ts.r2 + 1e-2

    @pytest.mark.parametrize("zeroed", ["h11", "h22", "p1", "p2"])
    def test_gamma_of_R(self, fig1, zeroed):
        # every R > 0 is infeasible, with the margin P g / target = 0 that
        # the dead user's single-user profile gives
        ch = replace(fig1, **{zeroed: getattr(fig1, zeroed) * 0})
        dead = RateProfile.from_beta(1.0 if zeroed in ("h11", "p1") else 0.0)
        with np.errstate(all="raise"):
            assert gamma_of_R(ch, RateProfile(0.5, 0.5), 1.0) == 0.0
            assert gamma_of_R(ch, dead, 1.0) == 0.0
