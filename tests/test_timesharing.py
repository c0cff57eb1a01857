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
from tinregion.rates import _proper_gains, _proper_rates
from tinregion.timesharing import (
    _SHIFTS, _SIGMAS, LAMBDA_FLOOR, _ROOT_SLACK, Cut, _InnerProblem, _exact_inner, _master,
    _lambda_max, _resultant_roots,
)

from conftest import (
    fixed_strategies, grid_oracle, highs_recovery, inner_bnb, inner_peak, p1_bound, p1_cubic,
    p1_max_eig, peak_box, piecewise_inner, proper_gains, proper_rates, random_channel,
    root_corner, split_objective,
)


class TestMmObjective:
    # the inner objective from the library's proper-rate kernel, _value, and
    # the oracle's mixed-monotonic one, conftest.split_objective
    def test_zero(self, fig1):
        prob = _problem(fig1, DualVariables(1.0, 1.0, 0.1, 0.1))
        assert _value(prob, 0.0, 0.0) == 0.0

    def test_no_interference_no_penalty(self, fig1):
        prob = _problem(fig1, DualVariables(1.0, 1.0, LAMBDA_FLOOR, LAMBDA_FLOOR))
        got = _value(prob, 4.0, 0.0) + _value(prob, 0.0, 7.0)
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
                assert abs(_value(prob, *p) - want) <= 1e-10
            # the array form is the scalar form elementwise
            np.testing.assert_array_equal(
                _value(prob, *np.transpose(powers)), [_value(prob, *p) for p in powers])

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


def _value(prob, p1, p2):
    """The objective of ``prob`` at ``(p1, p2)`` from the library's proper-rate
    kernel, elementwise: ``mu . r - lam . p``."""
    r1, r2 = _proper_rates(prob.gains, p1, p2)
    return prob.mu[0] * r1 + prob.mu[1] * r2 - prob.lam[0] * p1 - prob.lam[1] * p2


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
            np.testing.assert_allclose(val, _value(prob, p1, p2), atol=1e-12)
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

    @classmethod
    def _all_cases(cls, fig1, fig2, fig3):
        """``(ch, dv, cap1, p2)``: ``_cases`` at 20 random ``p2``, channels
        with no interference into receiver 2, and a one-antenna receiver."""
        cases = [(ch, dv, cap1, rng.uniform(0, cap2, 20))
                 for ch, dv, (cap1, cap2), rng in cls._cases(fig1, fig2, fig3)]
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
        return [(ch, dv, cap1, np.concatenate([[0.0], p2])) for ch, dv, cap1, p2 in cases]

    def test_oracle_matches_library(self, fig1, fig2, fig3):
        # at a == b the oracle's closed-form cubic and the library's
        # closed-form roots maximize the same function, so the two codes agree
        for ch, dv, cap1, p2 in self._all_cases(fig1, fig2, fig3):
            _, want = _problem(ch, dv).p1_max(p2, cap1)
            _, got = p1_bound(proper_gains(ch), dv, p2, p2, cap1)
            assert (np.abs(got - want) <= 1e-12 * (1 + np.abs(want))).all(), dv

    def test_matches_eigensolve(self, fig1, fig2, fig3):
        # the scalar closed form against the companion-matrix eigensolve it
        # replaced, on the library's own gains
        for ch, dv, cap1, p2 in self._all_cases(fig1, fig2, fig3):
            _check_p1_max(_proper_gains(ch), (dv.mu1, dv.mu2), (dv.lam1, dv.lam2), p2, cap1)

    @pytest.mark.parametrize("case", ["cap1-zero", "dead-cross-link", "silent-user-1",
                                      "no-penalty"])
    def test_degenerate(self, fig1, case):
        # each leaves a zero cubic term or zero coefficients; none may
        # raise, and none may warn (RuntimeWarnings are errors here)
        ch = {"dead-cross-link": replace(fig1, h21=0 * fig1.h21),
              "silent-user-1": replace(fig1, h11=0 * fig1.h11)}.get(case, fig1)
        lam = (0.0, 0.0) if case == "no-penalty" else (0.05, 0.1)
        cap1 = 0.0 if case == "cap1-zero" else fig1.p1
        for mu in ((1.0, 1.0), (1.9, 0.1), (0.0, 1.0), (1.0, 0.0)):
            p1, val = _check_p1_max(_proper_gains(ch), mu, lam,
                                    np.array([0.0, 1e-9, 1.0, fig1.p2, 1e3]), cap1)
            assert np.isfinite(val).all()
            if case == "cap1-zero":
                assert (p1 == 0.0).all()

    def test_budget_range(self, fig1):
        # budgets from 1e-10 to 1e10 with fig1's links, prices near the
        # single-user slopes, so the maximizers lie inside the range
        gains = _proper_gains(fig1)
        g = gains[0]
        for P in 10.0 ** np.arange(-10, 11):
            for scale in (0.01, 0.3, 1.0):
                lam = tuple(scale * gk / (1 + gk * P) / np.log(2) for gk in g)
                p2 = P * np.array([0.0, 1e-6, 0.3, 1.0])
                _, val = _check_p1_max(gains, (1.0, 1.0), lam, p2, P)
                assert np.isfinite(val).all()

    def test_far_roots(self):
        # a one-antenna receiver 2 (c_2 = 0) and a cheap user 2, so that
        # p2 g_2 swamps the cross term: the cubic term is 1e-12 to 1e-6 of
        # the others and one root lies up to 1e12 away.  The two near roots
        # are found from it, not from the shifted cubic it swamps
        rng = np.random.default_rng(40)
        small = []
        for _ in range(200):
            gains = _proper_gains(random_channel(rng, int(rng.integers(1, 5)), 1))
            mu1 = rng.uniform(0, 2)
            mu, lam = (mu1, 2 - mu1), (10 ** rng.uniform(-3, 0), 10 ** rng.uniform(-9, -5))
            cap1, cap2 = _InnerProblem(gains, mu, lam).peak
            p2 = rng.uniform(0, cap2, 5)
            c = np.abs(p1_cubic(gains, mu, lam, p2, cap1))
            small += [c3 / (c0 + c1 + c2) for c0, c1, c2, c3 in c if c3 > 0]
            _check_p1_max(gains, mu, lam, p2, cap1)
        assert sum(1e-12 < r < 1e-8 for r in small) >= 100

    @pytest.mark.parametrize("mu, p2, lams", [
        ((1.0, 1.0), 10.0, (0.2, 0.4)), ((0.5, 1.5), 1.0, (0.1, 0.2)),
        ((1.5, 0.5), 1.0, (0.5, 1.5)),
    ])
    def test_near_double_roots(self, fig1, mu, p2, lams):
        # lam1 bisected to where the cubic's two roots in (0, 1) merge (its
        # discriminant changes sign), and the prices around it
        gains, p2 = _proper_gains(fig1), np.array([p2])

        def disc(lam1):
            c0, c1, c2, c3 = p1_cubic(gains, mu, (lam1, 0.1), p2, fig1.p1)[0]
            return (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
                    - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)

        lo, hi = lams
        assert disc(lo) > 0 > disc(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if disc(mid) > 0 else (lo, mid)
        t = np.roots(p1_cubic(gains, mu, (lo, 0.1), p2, fig1.p1)[0, ::-1])
        assert np.sum((np.abs(t.imag) < 1e-6) & (0 < t.real) & (t.real < 1)) == 2
        for lam1 in lo * (1 + np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6])):
            _check_p1_max(gains, mu, (lam1, 0.1), p2, fig1.p1)


    def test_root_near_zero(self):
        # the best p1 is 1.7e-6 of a 6.0e9 peak, a root t = 2.8e-16 of the
        # cubic, whose closed form is accurate to about 1e-16 absolute: its
        # Newton step makes the root accurate relative to its size
        gains = ((1341135.0628839864, 2756222.881481868), (647146194440.479, 740139748537.3221),
                 (31119535.904258706, 268534.0701254864), (41088354547438.0, 0.0))
        mu, lam = (8.245812186789905, 18.34718837144562), (1.9942238282850785e-09,
                                                           2.0860669808500652e-08)
        cap1, cap2 = _InnerProblem(gains, mu, lam).peak
        p1, _ = _check_p1_max(gains, mu, lam, np.array([0.0, cap2]), cap1)
        assert 1e-6 < p1[1] < 2e-6


def _check_p1_max(gains, mu, lam, p2, cap1):
    """``_InnerProblem.p1_max`` against conftest's eigensolve within 1e-12
    relative to the terms of the maximum, which may cancel: the weighted
    rates are the maximum plus the penalty.  The maximizers lie in ``[0,
    cap1]``."""
    p1, got = _InnerProblem(gains, mu, lam).p1_max(p2, cap1)
    _, want = p1_max_eig(gains, mu, lam, p2, cap1)
    assert ((0.0 <= p1) & (p1 <= cap1)).all()
    size = np.abs(want) + lam[0] * p1 + lam[1] * p2
    assert (np.abs(got - want) <= 1e-12 * size).all(), (mu, lam, p2, cap1)
    return p1, got


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
    assert abs(_value(prob, *p) - val) <= 1e-12 * (1 + abs(val))
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


def _p2_grid_max(gains, mu, lam):
    """The largest of conftest's ``p1_max_eig`` over a dense grid of ``p2`` in
    ``[0, peak_2]``: 20,001 even points and 2,001 geometric ones toward each
    end, down to 1e-18 of the peak, then five finer grids around the best."""
    cap1, cap2 = inner_peak(gains, mu, lam)
    geo = 10.0 ** np.linspace(-18, 0, 2001)
    grid = np.unique(np.r_[np.linspace(0, cap2, 20001), cap2 * geo, cap2 * (1 - geo)])
    best = -np.inf
    for _ in range(6):
        _, vals = p1_max_eig(gains, mu, lam, grid, cap1)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 2001)
    return best


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

    @pytest.mark.parametrize("gains, mu, lam", [
        (((65.7714819625272, 33.9011915244341), (145.47880887642276, 1140.2624670710347),
          (43.042055756907665, 56.17771784580003), (2685.46098496912, 764.2291050250514)),
         (8.947934297773244, 6.2205236421547045), (1.4273740212683124e-09, 89.96994127566161)),
        (((3623.563615609832, 1.0730119588164797), (0.3908879181148695, 3100341.435893806),
          (0.00019027603191506973, 3100893.030764776),
          (0.2985893880551923, 226953.8691274772)),
         (18.58682327581137, 19.991717136454795), (5.4226719818097405e-09, 0.2005861040941198)),
        (((11069239.5598303, 113194247.01687312), (161598135794.0229, 4600858156.47637),
          (14598.8470951929, 40.64568896147655), (0.0, 0.0)),
         (14.001444463806807, 5.6329634655663), (0.3241289113389711, 4.639645576890967e-06)),
        (((7.529512249766937, 40.1735849184778), (128.41080724813352, 38.21844844373621),
          (55.024371897558524, 17.677098102561825), (285.89587499026504, 671.9339532917941)),
         (11.238085966776335, 7.353075163372029), (1.5194971065080896, 1.915750116105978e-08)),
    ], ids=["peak-9e9", "peak-5e9", "p2-near-0-of-2e6", "peak-6e8"])
    def test_large_peak_powers(self, gains, mu, lam):
        # unit budgets and peaks above 1e6, where the piecewise solve fell
        # short of the maximum by 1.1e-5, 3.3e-6 and 8.0e-7; in the third the
        # maximizer is at p2 = 1.56e-5 of a 1.75e6 peak, t2 = 8.9e-12.  In
        # the last, the users swapped, the coefficients of t1^k fall by about
        # 1e-10 per power, and a linearization that does not scale t1 missed
        # the interior critical point by 2.7e-4
        _, val = _exact_inner(_InnerProblem(gains, mu, lam))
        assert val >= _p2_grid_max(gains, mu, lam) - _ROOT_SLACK

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


def _pencil(p, q, m=(2.0, 0.0, 0.0, 1.0)):
    """``f1`` and ``f2`` of ``_resultant_roots`` whose resultant is ``m^3 p
    q`` up to a constant factor, for quadratics ``p``, ``q`` and a cubic ``m``
    in ``t2``, lowest power first: ``f2 = m (t1 - 1/2) (t1 - 3/10)``, and
    ``f1`` is ``p`` at ``t1 = 1/2`` and ``q`` at ``t1 = 3/10`` plus a cubic in
    ``t1`` that vanishes at both."""
    poly = np.polynomial.polynomial
    f1 = np.zeros((4, 3))
    f1[:2] = (np.outer([-0.3, 1.0], p) - np.outer([-0.5, 1.0], q)) / 0.2
    f1[:, 0] += poly.polyfromroots([0.5, 0.3, 0.7])
    f2 = np.outer(poly.polyfromroots([0.5, 0.3]), m)
    return f1.tolist(), f2.tolist()


def _nearest(got, want):
    """The distance from each root in ``want`` to the nearest of ``got``."""
    return np.abs(np.subtract.outer(want, got)).min(axis=1)


class TestResultantRoots:
    """The linearized Sylvester pencil of ``_resultant_roots`` on pencils of
    known roots, and the exact inner solve against conftest's
    ``piecewise_inner``, the piecewise Chebyshev solve that it replaced: on
    the problems of the sweeps and of degenerate or floor-priced
    multipliers, every exact maximum is at least the reference's."""

    @staticmethod
    def _check(probs):
        for prob in probs:
            _, got = _exact_inner(prob)
            _, want = piecewise_inner(prob.gains, prob.mu, prob.lam)
            assert got >= want - 1e-12 * (1 + abs(want)), (prob.mu, prob.lam, want - got)

    @pytest.mark.parametrize("eps", [2e-2, 1e-3])
    def test_sweeps(self, fig1, fig2, fig3, monkeypatch, eps):
        # each preset's sweep and that of the preset with its users swapped
        for ch in (fig1, fig2, fig3):
            probs = _inner_problems(monkeypatch, lambda: [sweep_region(
                c, "proper-timesharing", np.linspace(0, 1, 21), eps=eps)
                for c in (ch, _swap_users(ch))])
            assert len(probs) >= 40
            self._check(probs)

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
        self._check(probs)

    def test_lam_floor(self, fig1, fig2, fig3, monkeypatch):
        # at the lam floor the resultant can be pure roundoff, and the
        # reference then scores hundreds of roots
        rng = np.random.default_rng(46)
        dvs = [DualVariables(20.0, 1.03e-9, 2.5e-8, LAMBDA_FLOOR)]
        dvs += [DualVariables(*rng.uniform(0, 20, 2), LAMBDA_FLOOR,
                              LAMBDA_FLOOR * 10 ** rng.uniform(0, 2)) for _ in range(20)]
        probs = _inner_problems(monkeypatch, lambda: [
            solve_inner(ch, dv) for ch in (fig1, fig2, fig3) for dv in dvs])
        assert len(probs) >= 40
        self._check(probs)

    @pytest.mark.parametrize("m", [(2.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)],
                             ids=["regular", "singular-at-first-shift"])
    def test_root_near_an_end_is_kept(self, m):
        # roots 1e-12 and 5e-11 from the ends, and m = 1 + t2^3, whose root
        # -1 makes S(-1) singular, so that the second shift stands in
        poly = np.polynomial.polynomial
        for p, q in (([1e-12, 0.6], [1 - 1e-12, -3.0]), ([5e-11, 0.25], [1 - 5e-11, 1.5])):
            got = _resultant_roots(*_pencil(poly.polyfromroots(p), poly.polyfromroots(q), m))
            assert ((0.0 <= got) & (got <= 1.0)).all()
            assert (_nearest(got, [p[0], q[0]]) <= [1e-13, 1e-14]).all(), got
            if 0 < p[1] < 1:
                assert _nearest(got, [p[1]])[0] <= 1e-12, got

    def test_near_double_pair(self):
        # two roots 1e-9 apart, which roundoff may split into a complex pair
        poly = np.polynomial.polynomial
        got = _resultant_roots(*_pencil(poly.polyfromroots([0.4, 0.4 + 1e-9]),
                                        poly.polyfromroots([0.8, -3.0])))
        assert (_nearest(got, [0.4, 0.4 + 1e-9, 0.8]) <= [1e-7, 1e-7, 1e-12]).all(), got

    def test_root_off_the_axis_is_kept(self):
        # (t2 - 1/2)^2 + d^2 has its roots 1/2 +- i d inside the window of
        # kept roots, which gives their real part
        d = 0.999e-3
        got = _resultant_roots(*_pencil([0.25 + d * d, -1.0, 1.0], [-3.0, -2.0, 1.0]))
        assert (np.abs(got - 0.5) <= 1e-9).sum() == 2

    def test_random_pencils(self):
        # quadratics of random scale whose roots, 1e-3 apart or more, lie in
        # or near [0, 1], a third of them within 1e-12 to 1e-4 of an end;
        # the polish leaves each root in [0, 1] within 1e-10 of a candidate
        poly = np.polynomial.polynomial
        rng = np.random.default_rng(48)
        for _ in range(300):
            roots = np.full(4, 0.0)
            while np.diff(np.sort(roots)).min() <= 1e-3:
                roots = np.where(rng.random(4) < 0.3, 10.0 ** rng.uniform(-12, -4, 4),
                                 rng.uniform(-0.5, 1.5, 4))
                roots = np.where(rng.random(4) < 0.5, roots, 1 - roots)
            p, q = (poly.polyfromroots(r) * 10 ** rng.uniform(-1, 1)
                    for r in (roots[:2], roots[2:]))
            got = _resultant_roots(*_pencil(p, q))
            want = roots[(0 <= roots) & (roots <= 1)]
            assert not want.size or (_nearest(got, want) <= 1e-10).all(), (roots, got)

    def test_shift_tables_match_numpy(self):
        # each table maps the coefficients of a cubic in t to those of the
        # cubic in s = t - sigma
        rng = np.random.default_rng(49)
        for sigma, shift in zip(_SIGMAS, _SHIFTS):
            c = rng.standard_normal(4)
            want = np.polynomial.Polynomial(c)(np.polynomial.Polynomial([sigma, 1.0])).coef
            assert np.abs(shift @ c - want).max() <= 1e-14 * np.abs(want).max()


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
            gains = _proper_gains(_at_unit_budgets(fig1))
            assert hi[-1] == max(_lambda_max(gains, RateProfile(*rho)), 10 * LAMBDA_FLOOR)
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
    def test_cut_rates_match_rate_proper(self, fig1, fig2, fig3, monkeypatch):
        # each cut's rates come from the gains cutting_plane holds at unit
        # budgets, with no rate_proper call; rate_proper recomputes them from
        # the links in the caller's units.  The 21-beta sweeps share one pool,
        # so the last point's cuts are all of them
        def no_rate_proper(*args):
            raise AssertionError("cutting_plane called rate_proper")

        for ch in (fig1, fig2, fig3):
            pool = None
            with monkeypatch.context() as m:
                m.setattr(timesharing, "rate_proper", no_rate_proper)
                for beta in np.linspace(0, 1, 21):
                    pool = cutting_plane(ch, RateProfile.from_beta(beta), eps=2e-2,
                                         seed_cuts=pool).cuts
            assert len(pool) > 21
            for cut in pool:
                np.testing.assert_allclose(cut.rates, rate_proper(ch, *cut.p_star),
                                           rtol=1e-12, atol=0)

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

    def test_multipliers_are_floats(self, fig1):
        # the master's multipliers reach the scalar inner solve as Python
        # floats, not NumPy scalars
        res = cutting_plane(fig1, RateProfile(0.5, 0.5), eps=2e-2)
        for cut in res.cuts:
            assert all(type(v) is float for v in (cut.dv.mu1, cut.dv.mu2, cut.dv.lam1,
                                                  cut.dv.lam2))

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
