from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    SimoChannel,
    ValidationError,
    composite_cov_from_strategy,
    gradient_projection,
    multistart,
    project_psd_trace,
    rate_proper,
    strategy_from_composite_cov,
    wsr_gradient,
    wsr_objective,
)
from tinregion.improper_gp import random_improper_init


def _random_improper(rng, p):
    c = p * (0.2 + 0.8 * rng.uniform())
    mag = 0.7 * c * rng.uniform()
    return composite_cov_from_strategy(c, mag * np.exp(2j * np.pi * rng.uniform()))


class TestObjective:
    def test_zero(self, fig1):
        assert wsr_objective(fig1, np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0) == 0.0

    def test_single_weight(self, fig1):
        m1 = composite_cov_from_strategy(6.0, 2.0)
        m2 = composite_cov_from_strategy(4.0, 1.0 + 1.0j)
        from tinregion import rate_composite

        r = rate_composite(fig1, m1, m2)
        assert abs(wsr_objective(fig1, m1, m2, 1.0, 0.0) - r.r1) <= 1e-12

    def test_full_power_proper(self, fig1):
        m1 = np.diag([5.0, 5.0])
        m2 = np.diag([5.0, 5.0])
        r = rate_proper(fig1, 10.0, 10.0)
        assert abs(wsr_objective(fig1, m1, m2, 1.0, 1.0) - (r.r1 + r.r2)) <= 1e-10


class TestGradient:
    def test_finite_differences(self, fig1):
        rng = np.random.default_rng(40)
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            m1 = _random_improper(rng, fig1.p1)
            m2 = _random_improper(rng, fig1.p2)
            w = (rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
            g1, g2 = wsr_gradient(fig1, m1, m2, w)
            for which, m, g in ((0, m1, g1), (1, m2, g2)):
                for i in range(2):
                    for j in range(i, 2):
                        e = np.zeros((2, 2))
                        e[i, j] = e[j, i] = 1.0
                        up = [m1, m2]
                        dn = [m1, m2]
                        up[which] = m + h * e
                        dn[which] = m - h * e
                        fd = (
                            wsr_objective(fig1, up[0], up[1], *w)
                            - wsr_objective(fig1, dn[0], dn[1], *w)
                        ) / (2 * h)
                        an = g[i, j] * (2.0 if i != j else 1.0)
                        worst = max(worst, abs(fd - an) / max(1e-8, abs(fd)))
        assert worst <= 1e-5

    def test_single_user_gradient_psd(self, fig1):
        m1 = composite_cov_from_strategy(4.0, 1.0)
        g1, _ = wsr_gradient(fig1, m1, np.zeros((2, 2)), (1.0, 0.0))
        assert np.linalg.eigvalsh(g1).min() >= -1e-12

    def test_cross_term_negative_semidefinite(self, fig1):
        m1 = composite_cov_from_strategy(4.0, 1.0)
        m2 = composite_cov_from_strategy(5.0, 2.0)
        # with w = (0, 1) the gradient w.r.t. user 1 is the pure cross term
        g1, _ = wsr_gradient(fig1, m1, m2, (0.0, 1.0))
        assert np.linalg.eigvalsh(g1).max() <= 1e-12


class TestProjection:
    def test_analytic_cases(self):
        np.testing.assert_allclose(
            project_psd_trace(np.diag([3.0, 1.0]), 2.0), np.diag([2.0, 0.0]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            project_psd_trace(np.diag([2.0, -1.0]), 2.0), np.diag([2.0, 0.0]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            project_psd_trace(np.diag([1.0, 1.0]), 4.0), np.diag([2.0, 2.0]),
            atol=1e-12,
        )

    def test_zero_target(self):
        m = np.array([[2.0, 0.5], [0.5, -1.0]])
        zero = project_psd_trace(m, 0.0)
        np.testing.assert_array_equal(zero, np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            project_psd_trace(m, -1e-12)

    def test_trace_exact_and_psd(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            m = a + a.T
            out = project_psd_trace(m, 3.0)
            assert abs(np.trace(out) - 3.0) <= 1e-10
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            a = rng.standard_normal((2, 2))
            m = a + a.T
            once = project_psd_trace(m, 2.5)
            twice = project_psd_trace(once, 2.5)
            np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_frobenius_nearest_on_slice(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((2, 2))
        m = a + a.T
        proj = project_psd_trace(m, 2.0)
        d0 = np.linalg.norm(m - proj)
        for _ in range(100):
            # random PSD with trace exactly 2
            b = rng.standard_normal((2, 2))
            x = b @ b.T
            x *= 2.0 / np.trace(x)
            assert d0 <= np.linalg.norm(m - x) + 1e-10


class TestGradientProjection:
    def test_interference_free_full_power_proper(self):
        h11 = np.array([1.0 + 0.5j, -0.3 + 0.2j])
        h22 = np.array([0.4 - 1.1j, 0.9 + 0.1j])
        ch = SimoChannel(h11, np.zeros(2, complex), np.zeros(2, complex), h22,
                         10.0, 10.0)
        init = (np.diag([5.0, 5.0]), np.diag([5.0, 5.0]))
        res = gradient_projection(ch, (1.0, 1.0), init)
        want = np.log2(1 + 10 * np.linalg.norm(h11) ** 2) + np.log2(
            1 + 10 * np.linalg.norm(h22) ** 2
        )
        assert res.converged
        assert abs(res.W - want) <= 1e-6

    def test_monotone_and_feasible(self, fig1):
        rng = np.random.default_rng(44)
        init = random_improper_init(fig1, rng)
        w0 = wsr_objective(fig1, init[0], init[1], 1.0, 1.0)
        res = gradient_projection(fig1, (1.0, 1.0), init)
        assert res.W >= w0 - 1e-12
        for m, p in ((res.m1, fig1.p1), (res.m2, fig1.p2)):
            assert np.trace(m) <= p + 1e-9
            assert np.linalg.eigvalsh(m).min() >= -1e-9

    def test_proper_initialization_stays_proper(self, fig1):
        init = (np.diag([5.0, 5.0]), np.diag([5.0, 5.0]))
        res = gradient_projection(fig1, (1.0, 1.0), init, max_iter=50)
        _, ct1 = strategy_from_composite_cov(res.m1)
        _, ct2 = strategy_from_composite_cov(res.m2)
        assert abs(ct1) <= 1e-9 and abs(ct2) <= 1e-9


class TestMultistart:
    def test_deterministic(self, fig1):
        b1, _ = multistart(fig1, (1.0, 1.0), n_starts=3, seed=123)
        b2, _ = multistart(fig1, (1.0, 1.0), n_starts=3, seed=123)
        assert b1.W == b2.W
        np.testing.assert_array_equal(b1.m1, b2.m1)

    def test_requires_starts(self, fig1):
        with pytest.raises(ValidationError):
            multistart(fig1, (1.0, 1.0), n_starts=0)

    def test_initializations_are_improper(self, fig1):
        rng = np.random.default_rng(45)
        for _ in range(20):
            m1, m2 = random_improper_init(fig1, rng)
            for m, p in ((m1, fig1.p1), (m2, fig1.p2)):
                c, ct = strategy_from_composite_cov(m)
                assert 0 < c <= p
                assert 0.5 * c - 1e-12 <= abs(ct) <= c + 1e-12

    def test_fig1_best_sum(self, fig1):
        best, _ = multistart(fig1, (1.0, 1.0), n_starts=20, seed=0)
        assert best.rates.r1 + best.rates.r2 >= 6.0

    def test_fig3_point(self, fig3):
        best, runs = multistart(fig3, (1.0, 1.0), n_starts=20, seed=0)
        hit = any(
            abs(r.rates.r1 - 4.22659234751564) <= 0.1
            and abs(r.rates.r2 - 3.27626740281447) <= 0.1
            for r in runs
        )
        assert hit

    @pytest.mark.parametrize("zeroed", ["p1", "p2"])
    def test_zero_budget(self, fig1, zeroed):
        # the other user sees no interference, so its best rate is the
        # interference-free full-power rate
        ch = replace(fig1, **{zeroed: 0.0})
        best, _ = multistart(ch, (0.5, 0.5), n_starts=5, seed=0)
        if zeroed == "p1":
            silent, other, h, p = best.rates.r1, best.rates.r2, ch.h22, ch.p2
        else:
            silent, other, h, p = best.rates.r2, best.rates.r1, ch.h11, ch.p1
        single = np.log2(1 + p * np.linalg.norm(h) ** 2)
        assert silent == 0.0
        assert single - 1e-4 <= other <= single + 1e-12
