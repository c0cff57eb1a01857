from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    ConvergenceError,
    DualVariables,
    RateProfile,
    TxStrategy,
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
from tinregion.timesharing import (
    LAMBDA_FLOOR,
    _branch_and_bound,
    _InnerProblem,
    _split,
    init_box,
)


def _grid_oracle(ch, dv, width=None):
    """400x400 grid plus staged refinement of the penalized sum rate."""
    prob = _InnerProblem(ch, dv)
    if width is None:
        root = init_box(ch, dv)
        width = np.array(root.hi)
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


class TestBoxOps:
    # _InnerProblem.bounds on the children that _split produces
    def test_singleton_tight(self, fig1):
        prob = _InnerProblem(fig1, DualVariables(1.0, 1.0, 0.1, 0.1))
        u, low = prob.bounds(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]))
        assert abs(u[0] - low[0]) <= 1e-12

    def test_gap_and_nesting(self, fig1):
        prob = _InnerProblem(fig1, DualVariables(1.0, 1.0, 0.05, 0.05))
        lo, hi = np.array([[0.0, 0.0]]), np.array([[10.0, 10.0]])
        (u,), (low,) = prob.bounds(lo, hi)
        assert u >= low
        rng = np.random.default_rng(34)
        for _ in range(4):  # two levels of children, then two more
            lo, hi = _split(lo, hi)
            cu, clow = prob.bounds(lo, hi)
            assert (cu <= u + 1e-12).all() and (clow <= cu).all()
            for a, b, bound in zip(lo, hi, cu):
                p = a[:, None] + rng.uniform(0, 1, (2, 50)) * (b - a)[:, None]
                assert (prob.value(*p, *p) <= bound + 1e-12).all()

    def test_branch_longest_edge(self):
        lo, hi = _split(np.array([[0.0, 0.0], [0.0, 0.0]]),
                        np.array([[4.0, 2.0], [1.0, 3.0]]))
        # lower halves first, each box cut across its own longest edge
        np.testing.assert_array_equal(lo, [[0, 0], [0, 0], [2, 0], [0, 1.5]])
        np.testing.assert_array_equal(hi, [[2, 2], [1, 1.5], [4, 2], [1, 3]])

    def test_branch_tie_breaks_first_axis(self):
        lo, hi = _split(np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]]))
        np.testing.assert_array_equal(hi[0], [1.0, 2.0])
        np.testing.assert_array_equal(lo[1], [1.0, 0.0])

    def test_branch_volumes(self):
        rng = np.random.default_rng(35)
        plo = rng.uniform(0, 5, (40, 2))
        phi = plo + rng.uniform(0.1, 5, (40, 2))
        lo, hi = _split(plo, phi)
        vol = np.prod(hi - lo, axis=1)
        np.testing.assert_allclose(vol, np.tile(np.prod(phi - plo, axis=1) / 2, 2),
                                   rtol=1e-12)
        # the halves tile the parent: they meet on one edge's midpoint
        np.testing.assert_array_equal(lo[:40], plo)
        np.testing.assert_array_equal(hi[40:], phi)
        moved = hi[:40] != phi
        np.testing.assert_array_equal(moved, lo[40:] != plo)
        assert (moved.sum(axis=1) == 1).all()
        np.testing.assert_array_equal(hi[:40][moved], lo[40:][moved])


class TestInitBox:
    def test_peak_at_zero(self, fig1):
        # lambda large enough that the interference-free peak is at zero
        g = float(np.linalg.norm(fig1.h11) ** 2)
        lam = 10 * g / np.log(2)
        dv = DualVariables(1.0, 1.0, lam, lam)
        b = init_box(fig1, dv)
        assert b.hi[0] <= 1e-9 and b.hi[1] <= 1e-9

    def test_envelope_negative_beyond_edge(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        b = init_box(fig1, dv)
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
            f_at_edge = mu * np.log2(1 + b.hi[k] * g) - lam * b.hi[k]
            assert f_at_edge + fmax_j <= 1e-6

    def test_envelope_dominates_objective(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        b = init_box(fig1, dv)
        rng = np.random.default_rng(31)
        ln2 = np.log(2)
        for _ in range(100):
            p = rng.uniform(0, 1, 2) * np.array(b.hi)
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


class TestEngine:
    @pytest.mark.parametrize("max_boxes", [10, 100, 1000])
    def test_exhausted_budget_still_certifies(self, fig1, max_boxes):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        p, low, u_cert, resolved = _branch_and_bound(fig1, dv, 1e-4, max_boxes)
        assert not resolved
        assert abs(_InnerProblem(fig1, dv).value(*p, *p) - low) <= 1e-12
        oracle = _grid_oracle(fig1, dv)
        assert low <= oracle + 1e-3  # the oracle is accurate to 1e-3
        assert oracle <= u_cert

    def test_solve_inner_raises_past_the_cap(self, fig1, monkeypatch):
        monkeypatch.setattr(timesharing, "_MAX_BOXES", 100)
        with pytest.raises(ConvergenceError):
            solve_inner(fig1, DualVariables(1.0, 1.0, 0.05, 0.05), eps=1e-4)

    @pytest.mark.parametrize("max_boxes", [100, 400_000])
    def test_deterministic(self, fig1, max_boxes):
        dv = DualVariables(0.7, 1.3, 0.04, 0.2)
        first = _branch_and_bound(fig1, dv, 1e-4, max_boxes)
        assert _branch_and_bound(fig1, dv, 1e-4, max_boxes) == first


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
