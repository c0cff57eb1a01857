from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    ConvergenceError,
    DualVariables,
    RateProfile,
    TxStrategy,
    ValidationError,
    balance_pure_proper,
    cutting_plane,
    dual_value,
    gamma_of_R,
    primal_recovery,
    rate_complex,
    solve_inner,
    sweep_region,
)
from tinregion import timesharing
from tinregion.channel import SimoChannel
from tinregion.rates import _proper_gains
from tinregion.timesharing import (
    LAMBDA_FLOOR,
    _branch_and_bound,
    _InnerProblem,
)

from conftest import root_corner


def _grid_oracle(ch, dv, width=None):
    """400x400 grid plus staged refinement of the penalized sum rate."""
    prob = _InnerProblem(ch, dv)
    if width is None:
        width = np.array(root_corner(ch, dv))
    lo = np.zeros(2)
    span = np.asarray(width, dtype=float)
    best = 0.0
    for stage in range(8):
        n = 400 if stage == 0 else 60
        p1 = np.linspace(lo[0], lo[0] + span[0], n)
        p2 = np.linspace(lo[1], lo[1] + span[1], n)
        a, b = np.meshgrid(p1, p2, indexing="ij")
        q1 = np.clip(prob.g[0] - b * prob.x[0] / (1 + b * prob.n[0]), 0, None)
        q2 = np.clip(prob.g[1] - a * prob.x[1] / (1 + a * prob.n[1]), 0, None)
        f = (
            dv.mu1 * np.log2(1 + a * q1)
            + dv.mu2 * np.log2(1 + b * q2)
            - dv.lam1 * a
            - dv.lam2 * b
        )
        i = np.unravel_index(np.argmax(f), f.shape)
        best = max(best, float(f[i]))
        center = np.array([a[i], b[i]])
        span = span * 0.2
        lo = np.maximum(center - span / 2, 0.0)
    return best


class TestMmObjective:
    # the mixed-monotonic objective of the inner problem, _InnerProblem.value
    def test_zero(self, fig1):
        prob = _InnerProblem(fig1, DualVariables(1.0, 1.0, 0.1, 0.1))
        assert prob.value(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_no_interference_no_penalty(self, fig1):
        prob = _InnerProblem(fig1, DualVariables(1.0, 1.0, LAMBDA_FLOOR, LAMBDA_FLOOR))
        got = prob.value(4.0, 7.0, 0.0, 0.0)
        want = np.log2(1 + 4.0 * np.linalg.norm(fig1.h11) ** 2) + np.log2(
            1 + 7.0 * np.linalg.norm(fig1.h22) ** 2
        )
        assert abs(got - want) <= 1e-9

    def test_diagonal_matches_penalized_rates(self, fig1):
        # against the determinant formula, which shares no code with it
        rng = np.random.default_rng(29)
        powers = [(10.0, 10.0)] + [tuple(rng.uniform(0, 10, 2)) for _ in range(20)]
        for dv in (
            DualVariables(1.0, 1.0, 0.1, 0.1), DualVariables(0.6, 1.4, 0.1, 0.3)
        ):
            prob = _InnerProblem(fig1, dv)
            for p in powers:
                r = rate_complex(fig1, TxStrategy(*p))
                want = dv.mu1 * r.r1 + dv.mu2 * r.r2 - dv.lam1 * p[0] - dv.lam2 * p[1]
                assert abs(prob.value(*p, *p) - want) <= 1e-10

    def test_monotonicity(self, fig1):
        prob = _InnerProblem(fig1, DualVariables(1.0, 0.7, 0.05, 0.08))
        rng = np.random.default_rng(30)
        x, y = rng.uniform(0, 10, (2, 2, 200))
        dx = rng.uniform(0, 2, (2, 200))
        base = prob.value(*x, *y)
        # the array form is the scalar form elementwise
        np.testing.assert_array_equal(
            [prob.value(*x[:, i], *y[:, i]) for i in range(200)], base
        )
        for k in (0, 1):
            step = np.zeros_like(dx)
            step[k] = dx[k]
            assert (prob.value(*(x + step), *y) >= base - 1e-12).all()
            assert (prob.value(*x, *(y + step)) <= base + 1e-12).all()


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
    # _InnerProblem.p1_max against grids of the objective written out from
    # log2 and the MMSE gains, sharing no code with the kernel
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
            prob = _InnerProblem(ch, dv)
            p2 = np.concatenate([[0.0, cap2], rng.uniform(0, cap2, 3)])
            p1, val = prob.p1_max(p2, p2, cap1)
            assert ((0.0 <= p1) & (p1 <= cap1)).all()
            np.testing.assert_allclose(val, prob.value(p1, p2, p1, p2), atol=1e-12)
            want = [_p1_grid_max(ch, dv, b, b, cap1) for b in p2]
            np.testing.assert_allclose(val, want, atol=1e-6)

    def test_interval_bound(self, fig1, fig2, fig3):
        # the bound is the exact maximum of the objective with user 2's
        # signal at b and its interference and penalty at a, so it is at
        # least the objective anywhere on [0, cap1] x [a, b]
        for ch, dv, (cap1, cap2), rng in self._cases(fig1, fig2, fig3):
            prob = _InnerProblem(ch, dv)
            for _ in range(4):
                a, b = np.sort(rng.uniform(0, cap2, 2))
                _, (bound,) = prob.p1_max(np.array([a]), np.array([b]), cap1)
                assert abs(bound - _p1_grid_max(ch, dv, b, a, cap1)) <= 1e-6
                p2 = np.linspace(a, b, 41)
                f = _direct_objective(ch, dv, np.linspace(0, cap1, 4001), p2, p2)
                assert f.max() <= bound + 1e-9


class TestInitBox:
    def test_peak_at_zero(self, fig1):
        # lambda large enough that the interference-free peak is at zero
        g = float(np.linalg.norm(fig1.h11) ** 2)
        lam = 10 * g / np.log(2)
        dv = DualVariables(1.0, 1.0, lam, lam)
        hi = root_corner(fig1, dv)
        assert hi[0] <= 1e-9 and hi[1] <= 1e-9

    def test_envelope_negative_beyond_edge(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        hi = root_corner(fig1, dv)
        ln2 = np.log(2)
        for k, (g, lam, mu) in enumerate(
            (
                (np.linalg.norm(fig1.h11) ** 2, dv.lam1, dv.mu1),
                (np.linalg.norm(fig1.h22) ** 2, dv.lam2, dv.mu2),
            )
        ):
            j = 1 - k
            gj = (np.linalg.norm(fig1.h11) ** 2, np.linalg.norm(fig1.h22) ** 2)[j]
            lamj = (dv.lam1, dv.lam2)[j]
            muj = (dv.mu1, dv.mu2)[j]
            peak_j = max(muj / (lamj * ln2) - 1 / gj, 0.0)
            fmax_j = muj * np.log2(1 + peak_j * gj) - lamj * peak_j
            f_at_edge = mu * np.log2(1 + hi[k] * g) - lam * hi[k]
            assert f_at_edge + fmax_j <= 1e-6

    def test_envelope_dominates_objective(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        hi = root_corner(fig1, dv)
        rng = np.random.default_rng(31)
        ln2 = np.log(2)
        for _ in range(100):
            p = rng.uniform(0, 1, 2) * np.array(hi)
            fhat = sum(
                mu * np.log2(1 + p[k] * g) - lam * p[k]
                for k, (g, lam, mu) in enumerate(
                    (
                        (np.linalg.norm(fig1.h11) ** 2, dv.lam1, dv.mu1),
                        (np.linalg.norm(fig1.h22) ** 2, dv.lam2, dv.mu2),
                    )
                )
            )
            assert fhat >= _InnerProblem(fig1, dv).value(*p, *p) - 1e-10


class TestSolveInner:
    def test_huge_penalty_forces_zero(self, fig1):
        dv = DualVariables(1.0, 1.0, 1e3, 1e3)
        p, val = solve_inner(fig1, dv, eps=1e-6)
        assert p == (0.0, 0.0) and abs(val) <= 1e-12

    def test_zero_weight_shuts_user(self, fig1):
        dv = DualVariables(1.0, 0.0, 0.05, 0.05)
        p, _ = solve_inner(fig1, dv, eps=1e-5)
        assert p[1] <= 1e-6

    def test_matches_grid_oracle(self, fig1):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mu1 = rng.uniform(0, 2)
            dv = DualVariables(
                mu1, 2.0 - mu1, rng.uniform(0.02, 0.5), rng.uniform(0.02, 0.5)
            )
            _, val = solve_inner(fig1, dv, eps=1e-4)
            oracle = _grid_oracle(fig1, dv)
            assert abs(val - oracle) <= 1e-3


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_multipliers(self, bad):
        for i in range(4):
            args = [1.0, 1.0, 0.1, 0.1]
            args[i] = bad
            with pytest.raises(ValidationError, match="finite"):
                DualVariables(*args)


class TestEngine:
    @pytest.mark.parametrize("max_intervals", [10, 100, 1000])
    def test_exhausted_budget_still_certifies(self, fig1, max_intervals):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        p, low, u_cert, resolved = _branch_and_bound(fig1, dv, 1e-6, max_intervals)
        assert not resolved
        assert abs(_InnerProblem(fig1, dv).value(*p, *p) - low) <= 1e-12
        oracle = _grid_oracle(fig1, dv)
        assert low <= oracle + 1e-3  # the oracle is accurate to 1e-3
        assert oracle <= u_cert

    def test_solve_inner_raises_past_the_cap(self, fig1, monkeypatch):
        monkeypatch.setattr(timesharing, "_MAX_INTERVALS", 100)
        with pytest.raises(ConvergenceError):
            solve_inner(fig1, DualVariables(1.0, 1.0, 0.05, 0.05), eps=1e-4)

    @pytest.mark.parametrize("max_intervals", [100, 400_000])
    def test_deterministic(self, fig1, max_intervals):
        dv = DualVariables(0.7, 1.3, 0.04, 0.2)
        first = _branch_and_bound(fig1, dv, 1e-4, max_intervals)
        assert _branch_and_bound(fig1, dv, 1e-4, max_intervals) == first

    @pytest.mark.parametrize("name", ["fig1", "fig3"])
    def test_multiplier_past_the_old_box_cap(self, name, request):
        # the 2-D box engine ran out of its 2 M boxes on this multiplier
        ch = request.getfixturevalue(name)
        dv = DualVariables(0.7, 1.3, 0.02, 0.3)
        _, val = solve_inner(ch, dv, eps=1e-4)
        oracle = _grid_oracle(ch, dv)
        assert abs(val - oracle) <= 1e-3
        _, _, u_cert, resolved = _branch_and_bound(
            ch, dv, 1e-4, timesharing._MAX_INTERVALS
        )
        assert resolved and u_cert >= oracle


class TestDualValue:
    def test_weak_duality(self, fig1):
        prof = RateProfile(0.5, 0.5)
        primal = balance_pure_proper(fig1, prof, eps=1e-6).R  # pure <= ts <= dual
        dv = DualVariables(1.0, 1.0, 0.1, 0.1)
        assert dual_value(fig1, dv, eps=1e-4) >= primal - 1e-3

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
            va = dual_value(fig1, a, 1e-4)
            vb = dual_value(fig1, b, 1e-4)
            vm = dual_value(fig1, mid, 1e-4)
            assert vm <= 0.5 * (va + vb) + 3e-4

    def test_zero_budget(self, fig1):
        from tinregion.channel import SimoChannel

        ch0 = SimoChannel(fig1.h11, fig1.h12, fig1.h21, fig1.h22, 0.0, 0.0)
        dv = DualVariables(1.0, 1.0, 1e3, 1e3)
        assert abs(dual_value(ch0, dv, 1e-6)) <= 1e-9


class TestCuttingPlane:
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


    def test_stalls_on_a_repeated_unresolved_point(self, fig1, monkeypatch):
        # with every inner solve cut short the master proposes the same
        # multipliers again, whose cut would not change the model
        monkeypatch.setattr(timesharing, "_MAX_INTERVALS", 3)
        with pytest.raises(ConvergenceError, match="stalled"):
            cutting_plane(fig1, RateProfile(0.5, 0.5), eps=1e-2)

    def test_user_swap_symmetry(self, fig3):
        # the engine treats p1 and p2 differently; the swapped fig3 has a
        # dead cross link at receiver 2, so every inner row is degenerate
        swapped = _swap_users(fig3)
        assert _proper_gains(swapped)[2][1] == 0.0
        eps = 2e-2
        got, _, _ = cutting_plane(swapped, RateProfile(0.7, 0.3), eps=eps)
        want, _, _ = cutting_plane(fig3, RateProfile(0.3, 0.7), eps=eps)
        assert abs(got - want) <= eps


class TestPrimalRecovery:
    def test_json_schema(self, fig1):
        prof = RateProfile(0.5, 0.5)
        _, _, cuts = cutting_plane(fig1, prof, eps=2e-2)
        sol = primal_recovery(cuts, prof, fig1)
        d = sol.to_dict()
        assert set(d) == {"entries", "rates"}
        assert all(set(e) == {"tau", "p1", "p2"} for e in d["entries"])
        assert len(d["rates"]) == 2

    def test_at_most_four_strategies(self, fig1, fig2, fig3):
        for ch in (fig1, fig2, fig3):
            prof = RateProfile(0.5, 0.5)
            _, _, cuts = cutting_plane(ch, prof, eps=2e-2)
            sol = primal_recovery(cuts, prof, ch)
            assert 1 <= len(sol.entries) <= 4
            assert abs(sum(t for t, _, _ in sol.entries) - 1.0) <= 1e-9
            p1, p2 = sol.average_powers()
            assert p1 <= ch.p1 + 1e-6 and p2 <= ch.p2 + 1e-6


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
