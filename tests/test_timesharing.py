from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    Box,
    ConvergenceError,
    DualVariables,
    RateProfile,
    ValidationError,
    balance_pure_proper,
    box_bounds,
    branch_box,
    cutting_plane,
    dual_value,
    init_box,
    mm_objective,
    primal_recovery,
    rate_proper,
    solve_inner,
    sweep_region,
)
from tinregion import timesharing
from tinregion.timesharing import LAMBDA_FLOOR, _branch_and_bound


def _grid_oracle(ch, dv, width=None):
    """400x400 grid plus staged refinement of the penalized sum rate."""
    from tinregion.timesharing import _InnerProblem

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
    def test_zero(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.1, 0.1)
        assert mm_objective(fig1, (0, 0), (0, 0), dv) == 0.0

    def test_no_interference_no_penalty(self, fig1):
        dv = DualVariables(1.0, 1.0, LAMBDA_FLOOR, LAMBDA_FLOOR)
        x = (4.0, 7.0)
        got = mm_objective(fig1, x, (0.0, 0.0), dv)
        want = np.log2(1 + 4.0 * np.linalg.norm(fig1.h11) ** 2) + np.log2(
            1 + 7.0 * np.linalg.norm(fig1.h22) ** 2
        )
        assert abs(got - want) <= 1e-9

    def test_diagonal_matches_penalized_rates(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.1, 0.1)
        p = (10.0, 10.0)
        got = mm_objective(fig1, p, p, dv)
        r = rate_proper(fig1, *p)
        want = r.r1 + r.r2 - 0.1 * p[0] - 0.1 * p[1]
        assert abs(got - want) <= 1e-10

    def test_monotonicity(self, fig1):
        dv = DualVariables(1.0, 0.7, 0.05, 0.08)
        rng = np.random.default_rng(30)
        for _ in range(50):
            x = rng.uniform(0, 10, 2)
            y = rng.uniform(0, 10, 2)
            dx = rng.uniform(0, 2, 2)
            up = mm_objective(fig1, x + dx, y, dv)
            assert up >= mm_objective(fig1, x, y, dv) - 1e-12
            down = mm_objective(fig1, x, y + dx, dv)
            assert down <= mm_objective(fig1, x, y, dv) + 1e-12


class TestBoxOps:
    def test_singleton_tight(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.1, 0.1)
        b = Box((3.0, 4.0), (3.0, 4.0))
        u, low = box_bounds(fig1, b, dv)
        assert abs(u - low) <= 1e-12

    def test_gap_and_nesting(self, fig1):
        dv = DualVariables(1.0, 1.0, 0.05, 0.05)
        parent = Box((0.0, 0.0), (10.0, 10.0))
        u, low = box_bounds(fig1, parent, dv)
        assert u >= low
        c1, c2 = branch_box(parent)
        for child in (c1, c2):
            cu, _ = box_bounds(fig1, child, dv)
            assert cu <= u + 1e-12

    def test_branch_longest_edge(self):
        c1, c2 = branch_box(Box((0.0, 0.0), (4.0, 2.0)))
        assert c1.lo == (0.0, 0.0) and c1.hi == (2.0, 2.0)
        assert c2.lo == (2.0, 0.0) and c2.hi == (4.0, 2.0)

    def test_branch_tie_breaks_first_axis(self):
        c1, c2 = branch_box(Box((0.0, 0.0), (2.0, 2.0)))
        assert c1.hi == (1.0, 2.0) and c2.lo == (1.0, 0.0)

    def test_branch_volumes(self):
        parent = Box((1.0, 2.0), (5.0, 3.0))
        c1, c2 = branch_box(parent)
        vol = lambda b: (b.hi[0] - b.lo[0]) * (b.hi[1] - b.lo[1])
        assert abs(vol(c1) - vol(parent) / 2) <= 1e-12
        assert abs(vol(c2) - vol(parent) / 2) <= 1e-12

    def test_branch_degenerate(self):
        with pytest.raises(ValidationError):
            branch_box(Box((1.0, 1.0), (1.0, 1.0)))


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
            assert fhat >= mm_objective(fig1, p, p, dv) - 1e-10


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
        assert abs(mm_objective(fig1, p, p, dv) - low) <= 1e-12
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
