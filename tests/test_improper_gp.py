import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from tinregion import (
    SimoChannel,
    ValidationError,
    composite_cov_from_strategy,
    improper_gp,
    multistart,
    preset_scenario,
    rate_composite,
    rate_proper,
    strategy_from_composite_cov,
    sweep_region,
)
from tinregion.improper_gp import (
    GP_EPS, GP_MAX_ITER, gradient_projection, project_psd_trace, random_improper_init,
    wsr_gradient,
)
from tinregion.rates import _receivers

from conftest import (
    composite_real_embed, mp_rates_and_gradients, proper_rates, random_channel, wsr,
)


def _random_improper(rng, p):
    c = p * (0.2 + 0.8 * rng.uniform())
    mag = 0.7 * c * rng.uniform()
    return composite_cov_from_strategy(c, mag * np.exp(2j * np.pi * rng.uniform()))


def _eigh_projection(m, p):
    """Projection onto ``{PSD, trace <= p}`` from ``eigh``: clip the
    eigenvalues at zero, and if they then sum to more than ``p``, lower both
    by a common level (clipping again) so that the survivors sum to ``p``."""
    xi, omega = np.linalg.eigh(0.5 * (m + m.T))
    level = 0.0
    if np.clip(xi, 0.0, None).sum() > p:
        lo, hi = xi
        level = hi - p  # one active eigenvalue
        if lo - (lo + hi - p) / 2 > 0:
            level = (lo + hi - p) / 2
    return (omega * np.clip(xi - level, 0.0, None)) @ omega.T


def _reference_gp(ch, w, init, eps=GP_EPS, max_iter=GP_MAX_ITER):
    """One start of the spectral projected gradient ascent on the 2x2
    matrices themselves, sharing no code with the engine's closed forms: rates
    from ``rate_composite``'s determinants (``rate_complex``'s), gradients from matrix inverses and
    projections from ``eigh``.  Each iteration takes the
    direction ``d = proj(M + alpha G) - M``; it stops converged once
    ``||proj(M + G) - M|| <= eps max(P1, P2)`` and unconverged after
    ``max_iter`` moves.  Otherwise ``lam`` halves from 1 until
    ``W(M + lam d) >= min(last 10 W) + 1e-4 lam <G, d>``, or stops
    unconverged below 1e-12.  After move ``k`` the step is the Barzilai-Borwein
    ``s.s / -s.y`` (odd ``k``) or ``-s.y / y.y`` (even ``k``) in
    ``[1e-10, 1e10]``, and 1e10 if ``-s.y <= 0``.  A stationary point below
    the best iterate restarts the loop from the best one with a unit step.
    Returns ``(m1, m2, W, converged)`` of the best iterate."""
    e11, e12, e21, e22 = (composite_real_embed(h) for h in (ch.h11, ch.h12, ch.h21, ch.h22))
    c1, c2 = w[0] / (2 * np.log(2)), w[1] / (2 * np.log(2))
    tol = eps * max(ch.p1, ch.p2)

    def objective(m):
        r = rate_composite(ch, m[0], m[1])
        return w[0] * r.r1 + w[1] * r.r2

    def gradient(m):
        cs1 = e12 @ m[1] @ e12.T + 0.5 * np.eye(len(e12))
        cs2 = e21 @ m[0] @ e21.T + 0.5 * np.eye(len(e21))
        cy1 = e11 @ m[0] @ e11.T + cs1
        cy2 = e22 @ m[1] @ e22.T + cs2
        iy1, is1, iy2, is2 = (np.linalg.inv(c) for c in (cy1, cs1, cy2, cs2))
        g1 = c1 * e11.T @ iy1 @ e11 + c2 * e21.T @ (iy2 - is2) @ e21
        g2 = c2 * e22.T @ iy2 @ e22 + c1 * e12.T @ (iy1 - is1) @ e12
        return np.array([0.5 * (g1 + g1.T), 0.5 * (g2 + g2.T)])

    def proj(m):
        return np.array([_eigh_projection(m[0], ch.p1), _eigh_projection(m[1], ch.p2)])

    m = np.array(init, dtype=float)
    obj, g = objective(m), gradient(m)
    best, best_obj, history = m, obj, [obj]
    alpha, moves = 1.0, 0
    while True:
        if np.linalg.norm(proj(m + g) - m) <= tol:
            if obj >= best_obj:
                return best[0], best[1], best_obj, True
            # restart below the best iterate from it, with a fresh window
            m, g, obj, history, alpha = best, gradient(best), best_obj, [best_obj], 1.0
            continue
        if moves >= max_iter:
            return best[0], best[1], best_obj, False
        d = proj(m + alpha * g) - m
        floor, slope, lam = min(history[-10:]), 1e-4 * np.sum(g * d), 1.0
        while objective(m + lam * d) < floor + lam * slope:
            lam *= 0.5
            if lam < 1e-12:
                return best[0], best[1], best_obj, False
        new = m + lam * d
        new_g = gradient(new)
        s, y = new - m, new_g - g
        m, g, obj = new, new_g, objective(new)
        moves += 1
        history.append(obj)
        if obj > best_obj:
            best, best_obj = m, obj
        sy = -np.sum(s * y)
        if sy <= 0:
            alpha = 1e10
        else:
            alpha = np.sum(s * s) / sy if moves % 2 == 1 else sy / np.sum(y * y)
            alpha = min(max(alpha, 1e-10), 1e10)


def _assert_matches_reference(res, ref):
    m1, m2, W, converged = ref
    assert abs(res.W - W) <= 1e-10
    np.testing.assert_allclose(res.m1, m1, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.m2, m2, rtol=0, atol=1e-9)
    assert res.converged == converged


class TestObjective:
    def test_zero(self, fig1):
        assert wsr(fig1, np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0) == 0.0

    def test_single_weight(self, fig1):
        m1 = composite_cov_from_strategy(6.0, 2.0)
        m2 = composite_cov_from_strategy(4.0, 1.0 + 1.0j)
        from tinregion import rate_composite

        r = rate_composite(fig1, m1, m2)
        assert abs(wsr(fig1, m1, m2, 1.0, 0.0) - r.r1) <= 1e-12

    def test_full_power_proper(self, fig1):
        m1 = np.diag([5.0, 5.0])
        m2 = np.diag([5.0, 5.0])
        r = rate_proper(fig1, 10.0, 10.0)
        assert abs(wsr(fig1, m1, m2, 1.0, 1.0) - (r.r1 + r.r2)) <= 1e-10


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
                            wsr(fig1, up[0], up[1], *w)
                            - wsr(fig1, dn[0], dn[1], *w)
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


def _kernel_channel(rng, case):
    """A channel of the kernel accuracy test: random with 1-4 antennas per
    receiver, with a dead cross link, or with cross links within 1e-6 of
    the direct ones at P = 1e4."""
    ch = random_channel(rng, *map(int, rng.integers(1, 5, 2)), p=float(10 ** rng.uniform(-1, 4)))
    if case == "near-collinear":
        near = lambda h: h + 1e-6 * (rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h)))
        return replace(ch, h12=near(1.3 * ch.h11), h21=near(0.7j * ch.h22), p1=1e4, p2=1e4)
    zero = {"dead-h12": ("h12",), "dead-h21": ("h21",), "dead-both": ("h12", "h21")}.get(case, ())
    return replace(ch, **{name: 0 * getattr(ch, name) for name in zero})


class TestRateKernel:
    # the GP's closed-form rates and gradient against 50-digit determinants;
    # on the near-collinear draws rate_complex is up to 4e-11 off
    @pytest.mark.parametrize("case", ["random", "dead-h12", "dead-h21", "dead-both",
                                      "near-collinear"])
    @pytest.mark.parametrize("kind", ["improper", "proper", "maximally-improper"])
    def test_matches_mp_determinants(self, case, kind):
        rng = np.random.default_rng([61, len(case), len(kind)])
        for _ in range(4):
            ch = _kernel_channel(rng, case)
            x = []
            for p in (ch.p1, ch.p2):
                c = p * rng.uniform(0.05, 1.0)
                mag = {"improper": c * rng.uniform(0.0, 0.9), "proper": 0.0}.get(kind, c)
                x += [c, complex(mag * np.exp(2j * np.pi * rng.uniform()))]
            rates, grads = mp_rates_and_gradients(ch, x)
            slack = np.zeros(2)
            if kind == "maximally-improper":
                # on |ct| = c the exact gradient moves by up to ~2e-11 of its
                # size when |ct| moves by one ulp, more than the kernel's error
                off = mp_rates_and_gradients(ch, [x[0], x[1] * (1 - 2**-52),
                                                  x[2], x[3] * (1 - 2**-52)])[1]
                slack = [np.abs(a - b).max() / np.abs(a).max() for a, b in zip(grads, off)]
            ks = _receivers(ch)
            for k, w in enumerate(((1.0, 0.0), (0.0, 1.0))):
                _, r, g = improper_gp._point(ks, w, tuple(x))
                assert abs(r[k] - rates[k]) <= 1e-12 * rates[k]
                got = np.array([g[0], g[1].real, g[1].imag, g[2], g[3].real, g[3].imag])
                err = np.abs(got - grads[k]).max() / np.abs(grads[k]).max()
                assert err <= 1e-12 + 2 * slack[k], (k, err, slack[k])


class TestProjection:
    def test_analytic_cases(self):
        cases = [
            (np.diag([3.0, 1.0]), 2.0, np.diag([2.0, 0.0])),  # water-filled
            (np.diag([2.0, -1.0]), 2.0, np.diag([2.0, 0.0])),  # clipped
            (np.diag([1.0, 1.0]), 4.0, np.diag([1.0, 1.0])),  # under budget
            (np.diag([3.0, -1.0]), 5.0, np.diag([3.0, 0.0])),  # clipped, under
            (np.diag([-1.0, -2.0]), 5.0, np.zeros((2, 2))),
            (np.diag([4.0, 3.0]), 5.0, np.diag([3.0, 2.0])),  # common shift
        ]
        for m, p, want in cases:
            np.testing.assert_allclose(project_psd_trace(m, p), want, atol=1e-12)

    def test_zero_target(self):
        m = np.array([[2.0, 0.5], [0.5, -1.0]])
        zero = project_psd_trace(m, 0.0)
        np.testing.assert_array_equal(zero, np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            project_psd_trace(m, -1e-12)

    def test_trace_bounded_and_psd(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            m = a + a.T
            out = project_psd_trace(m, 3.0)
            assert np.trace(out) <= 3.0 + 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            # a feasible input is its own projection
            b = a @ a.T
            b *= 3.0 * rng.uniform() / np.trace(b)
            np.testing.assert_allclose(project_psd_trace(b, 3.0), b, rtol=0, atol=1e-12)

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
            # random PSD with trace at most 2
            b = rng.standard_normal((2, 2))
            x = b @ b.T
            x *= 2.0 * rng.uniform() / np.trace(x)
            assert d0 <= np.linalg.norm(m - x) + 1e-10


class TestClosedFormProjection:
    # project_psd_trace against the eigh clip-and-water-fill oracle
    @staticmethod
    def _symmetric(rng, k):
        a = rng.standard_normal((k, 2, 2)) * rng.uniform(0.01, 20, (k, 1, 1))
        return a + a.swapaxes(1, 2)

    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(46)
        ms = self._symmetric(rng, 1000)
        ms[:500] += rng.uniform(-20, 20, (500, 1, 1)) * np.eye(2)  # vary the trace
        ps = rng.uniform(0, 30, 1000)
        ps[:10] = 0.0
        for m, p in zip(ms, ps):
            scale = max(1.0, np.abs(m).max())
            np.testing.assert_allclose(project_psd_trace(m, p), _eigh_projection(m, p),
                                       rtol=0, atol=1e-12 * scale)

    def test_equal_eigenvalues(self):
        # r = 0: the clipped level, capped at half the budget
        for lam in (-3.0, 0.0, 2.5):
            for p in (0.0, 1.0, 7.0):
                m = lam * np.eye(2)
                out = project_psd_trace(m, p)
                np.testing.assert_allclose(out, min(max(lam, 0.0), 0.5 * p) * np.eye(2),
                                           atol=1e-15)
                np.testing.assert_allclose(out, _eigh_projection(m, p), atol=1e-12)

    def test_boundary_gap_equals_target(self):
        # over budget with 2r == p: shifting and the rank-one branch give the
        # same matrix, with a zero eigenvalue
        rng = np.random.default_rng(47)
        for _ in range(20):
            p, phi = rng.uniform(0.1, 10), rng.uniform(0, np.pi)
            mu = 0.5 * p + rng.uniform(0.01, 5)
            v = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            m = v @ np.diag([mu + 0.5 * p, mu - 0.5 * p]) @ v.T
            out = project_psd_trace(m, p)
            np.testing.assert_allclose(out, _eigh_projection(m, p), atol=1e-12)
            np.testing.assert_allclose(out, p * np.outer(v[:, 0], v[:, 0]), atol=1e-12)

    def test_matches_engine_projection(self):
        # matrix by matrix, project_psd_trace is the engine's projection of (c, ct)
        rng = np.random.default_rng(54)
        ms = self._symmetric(rng, 200)
        ps = rng.uniform(0, 30, 200)
        ps[:5] = 0.0
        for m, p in zip(ms, ps):
            out = project_psd_trace(m, p)
            c, ct = improper_gp._project(m[0, 0] + m[1, 1],
                                         complex(m[0, 0] - m[1, 1], m[0, 1] + m[1, 0]), p)
            np.testing.assert_array_equal(
                out, 0.5 * np.array([[c + ct.real, ct.imag], [ct.imag, c - ct.real]]))

    @pytest.mark.parametrize("p", [[1.0, -1.0], [1.0, np.nan], [1.0, 2.0, 3.0], [[1.0, 2.0]] * 3])
    def test_rejects_bad_budget_arrays(self, p):
        # one matrix, one budget: an array of budgets is not one
        with pytest.raises(ValidationError, match="must be a real number"):
            project_psd_trace(np.zeros((2, 2)), np.array(p))

    def test_rejects_other_shapes(self):
        with pytest.raises(ValidationError):
            project_psd_trace(np.eye(3), 1.0)
        with pytest.raises(ValidationError):
            project_psd_trace(np.zeros((4, 2, 2)), 1.0)  # a stack
        with pytest.raises(ValidationError):
            project_psd_trace(np.eye(2), np.nan)


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
        w0 = wsr(fig1, init[0], init[1], 1.0, 1.0)
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


class TestReferenceEquivalence:
    # the engine against the matrix reference loop _reference_gp, start by start
    @pytest.mark.parametrize("name", ["fig1", "fig3", "mixed"])
    def test_multistart_matches_reference(self, fig1, fig3, name):
        # "mixed" has one antenna at receiver 1 and three at receiver 2
        ch = {"fig1": fig1, "fig3": fig3,
              "mixed": random_channel(np.random.default_rng(52), n1=1, n2=3)}[name]
        _, runs = multistart(ch, (0.5, 0.5), n_starts=4, seed=7)
        rng = np.random.default_rng(7)
        for res in runs[:4]:
            init = random_improper_init(ch, rng)
            _assert_matches_reference(res, _reference_gp(ch, (0.5, 0.5), init))

    def test_benchmark_extreme_weight_start(self, fig1):
        # start 0 of the benchmark's fig1 op at weights (0.05, 0.95)
        _, runs = multistart(fig1, (0.05, 0.95), n_starts=1, seed=0)
        init = random_improper_init(fig1, np.random.default_rng(0))
        ref = _reference_gp(fig1, (0.05, 0.95), init)
        assert ref[3]
        assert runs[0].W > wsr(fig1, *init, 0.05, 0.95) + 0.1
        _assert_matches_reference(runs[0], ref)

    def test_restart_from_best(self, fig1):
        # start 1 at seed 3 climbs to W 2.838 on its third move, falls to the
        # maximally improper full-power face and becomes stationary there at
        # W 2.701; it restarts from its best iterate and ends above it
        _, runs = multistart(fig1, (0.5, 0.5), n_starts=2, seed=3)
        rng = np.random.default_rng(3)
        random_improper_init(fig1, rng)
        ref = _reference_gp(fig1, (0.5, 0.5), random_improper_init(fig1, rng))
        assert ref[3] and ref[2] > 2.9
        _assert_matches_reference(runs[1], ref)

    def test_iteration_cap(self, fig1):
        # start 1 at seed 3 (see test_restart_from_best) capped at 4 moves:
        # its fourth move falls from W 2.838 to 2.664, and the cap returns the
        # third iterate, unconverged
        rng = np.random.default_rng(3)
        random_improper_init(fig1, rng)
        init = random_improper_init(fig1, rng)
        res = gradient_projection(fig1, (0.5, 0.5), init, max_iter=4)
        ref = _reference_gp(fig1, (0.5, 0.5), init, max_iter=4)
        assert not ref[3] and 2.83 < ref[2] < 2.84
        _assert_matches_reference(res, ref)

    def test_batch_independence(self, fig1):
        # random starts first, the two seeds last
        _, three = multistart(fig1, (0.3, 0.7), n_starts=3, seed=52)
        _, five = multistart(fig1, (0.3, 0.7), n_starts=5, seed=52)
        assert len(three) == 5 and len(five) == 7
        for a, b in zip(three[:3] + three[3:], five[:3] + five[5:]):
            assert a.W == b.W and a.rates == b.rates and a.converged == b.converged
            assert a.residual == b.residual
            np.testing.assert_array_equal(a.m1, b.m1)
            np.testing.assert_array_equal(a.m2, b.m2)


class TestInputValidation:
    @pytest.mark.parametrize("w", [(-1.0, 2.0), (np.nan, 1.0), (1.0, np.inf), (1.0,), ("a", 1)])
    def test_bad_weights(self, fig1, w):
        m = np.diag([2.0, 2.0])
        with pytest.raises(ValidationError):
            multistart(fig1, w, n_starts=1)
        with pytest.raises(ValidationError):
            gradient_projection(fig1, w, (m, m))
        with pytest.raises(ValidationError):
            wsr_gradient(fig1, m, m, w)
        with pytest.raises(ValidationError):
            improper_gp._weights(w)

    @pytest.mark.parametrize("user", [0, 1])
    def test_init_over_budget(self, fig1, user):
        init = [np.diag([2.0, 2.0]), np.diag([2.0, 2.0])]
        p = (fig1.p1, fig1.p2)[user]
        init[user] = np.diag([0.5 * p, 0.5 * p]) * (1 + 1e-8)
        with pytest.raises(ValidationError):
            gradient_projection(fig1, (1.0, 1.0), tuple(init))
        # within the relative slack of 1e-9 the init is accepted
        init[user] = np.diag([0.5 * p, 0.5 * p]) * (1 + 1e-10)
        res = gradient_projection(fig1, (1.0, 1.0), tuple(init), max_iter=1)
        assert np.trace((res.m1, res.m2)[user]) <= p * (1 + 1e-9)


class TestMultistart:
    def test_deterministic(self, fig1):
        b1, _ = multistart(fig1, (1.0, 1.0), n_starts=3, seed=123)
        b2, _ = multistart(fig1, (1.0, 1.0), n_starts=3, seed=123)
        assert b1.W == b2.W
        np.testing.assert_array_equal(b1.m1, b2.m1)

    def test_requires_starts(self, fig1):
        with pytest.raises(ValidationError):
            multistart(fig1, (1.0, 1.0), n_starts=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_starts(self, fig1, n):
        with pytest.raises(ValidationError):
            multistart(fig1, (1.0, 1.0), n_starts=n)

    def test_seeds_follow_random_starts(self, fig1):
        # the proper seed stays proper; its 5% improper copy need not
        _, runs = multistart(fig1, (0.5, 0.5), n_starts=3, seed=0)
        assert len(runs) == 5
        for m in (runs[3].m1, runs[3].m2):
            assert abs(strategy_from_composite_cov(m)[1]) <= 1e-9
        assert runs[4].W >= runs[3].W - 1e-9

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


def _proper_edge_optimum(ch, w):
    """Best proper weighted sum rate on the two full-power edges, where it
    lies: a 2001-point grid per edge from the closed-form oracle rates,
    refined by a bounded scalar search around the best grid point."""
    best = -np.inf
    for k in (0, 1):
        top = (ch.p2, ch.p1)[k]

        def wsr(q):
            r1, r2 = proper_rates(ch, *((ch.p1, q) if k == 0 else (q, ch.p2)))
            return w[0] * r1 + w[1] * r2

        q = np.linspace(0.0, top, 2001)
        v = wsr(q)
        i = int(np.argmax(v))
        fine = minimize_scalar(lambda x: -wsr(x), bounds=(q[max(i - 1, 0)], q[min(i + 1, 2000)]),
                               method="bounded", options={"xatol": 1e-12})
        best = max(best, float(v[i]), -float(fine.fun))
    return best


def _edge_grid_optimum(ch, w, points=100_001):
    """Best proper weighted sum rate on a grid of each full-power edge, from
    the closed-form oracle rates."""
    q = np.linspace(0.0, 1.0, points)
    return max(float(np.max(w[0] * r1 + w[1] * r2)) for r1, r2 in (
        proper_rates(ch, ch.p1, q * ch.p2), proper_rates(ch, q * ch.p1, ch.p2)))


class TestProperSeed:
    # the seed is the exact proper optimum on the full-power edges; a
    # 4,097-point search of each edge fell short of this grid by up to
    # 0.0069 bit on four of the one-antenna draws
    @pytest.mark.parametrize("name", [
        "fig1", "fig2", "fig3",
        *(f"one-antenna-{s}-{n1}{3 - n1}" for s in range(6) for n1 in (1, 2)),
    ])
    def test_not_below_edge_grid(self, name):
        if name.startswith("one-antenna"):
            _, _, seed, (n1, n2) = name.split("-")
            ch = random_channel(np.random.default_rng(int(seed)), int(n1), int(n2), p=1000.0)
        else:
            ch = preset_scenario(name)
        for beta in np.linspace(0.0, 1.0, 21):
            w = (beta, 1.0 - beta)
            r1, r2 = proper_rates(ch, *improper_gp._proper_seed(ch, np.array(w)))
            assert w[0] * r1 + w[1] * r2 >= _edge_grid_optimum(ch, w) - 1e-12, beta

    @pytest.mark.parametrize("case", [
        "zero-p1", "zero-p2", "zero-budgets", "dead-h11", "dead-h22",
        "no-cross-links", "collinear",
    ])
    def test_degenerate_channels(self, case, fig1):
        ch = {
            "zero-p1": replace(fig1, p1=0.0),
            "zero-p2": replace(fig1, p2=0.0),
            "zero-budgets": replace(fig1, p1=0.0, p2=0.0),
            "dead-h11": replace(fig1, h11=0 * fig1.h11),
            "dead-h22": replace(fig1, h22=0 * fig1.h22),
            "no-cross-links": replace(fig1, h12=0 * fig1.h12, h21=0 * fig1.h21),
            "collinear": replace(fig1, h12=1.2 * fig1.h11, h21=1.4 * fig1.h22),
        }[case]
        for w in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p1, p2 = improper_gp._proper_seed(ch, np.array(w))
            assert 0.0 <= p1 <= ch.p1 and 0.0 <= p2 <= ch.p2, w


def _case_channel(name):
    if name == "collinear":  # acceptance C4
        ch = preset_scenario("fig1")
        return replace(ch, h12=1.2 * ch.h11, h21=1.4 * ch.h22)
    if name.startswith("random-p"):
        return random_channel(np.random.default_rng(60), p=float(name[8:]))
    if name == "one-antenna-p100":
        return random_channel(np.random.default_rng(3), n1=1, n2=2, p=100.0)
    if name == "low-snr":
        return random_channel(np.random.default_rng(4), p=0.1)
    return preset_scenario(name)


def _multistart_inits(ch, w, n_starts, seed):
    """The starts of ``multistart``: the random improper ones, then the
    proper seed and its 5% improper copy."""
    rng = np.random.default_rng(seed)
    inits = [random_improper_init(ch, rng) for _ in range(n_starts)]
    c = improper_gp._proper_seed(ch, np.array(w))
    return inits + [tuple(composite_cov_from_strategy(ck, f * ck) for ck in c) for f in (0.0, 0.05)]


class TestFeasibleAscent:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_not_below_proper_optimum(self, name):
        # every proper strategy is an improper one
        ch = preset_scenario(name)
        curve = sweep_region(ch, "improper-heuristic", np.linspace(0, 1, 21), n_starts=5)
        for beta, pt in curve.samples:
            w = (beta, 1.0 - beta)
            assert w[0] * pt.r1 + w[1] * pt.r2 >= _proper_edge_optimum(ch, w) - 1e-9, beta

    # the benchmark's ops on fig1-3, the collinear channel of acceptance C4,
    # high-SNR random channels where the 1/s step ended on its caps, a
    # one-antenna receiver at P = 100 where the doubling/halving step
    # zigzagged to its cap, and a P = 0.1 channel where an absolute-gain stop
    # quit at residuals of 3.8e-3 P
    @pytest.mark.parametrize("name,beta", [
        *((n, b) for n in ("fig1", "fig2", "fig3") for b in (0.05, 0.5, 0.95)),
        ("collinear", 0.5),
        *((f"random-p{p}", 0.5) for p in range(100, 700, 100)),
        ("one-antenna-p100", 0.8), ("one-antenna-p100", 0.9),
        ("low-snr", 0.5), ("low-snr", 0.8),
    ])
    def test_every_start_converges(self, name, beta, monkeypatch):
        ch = _case_channel(name)
        # the one-antenna channel as scanned: 10 starts at seed int(1000 beta)
        n_starts, seed = {"one-antenna-p100": (10, int(1000 * beta)), "low-snr": (20, 0)}.get(
            name, (20, 3))
        w, scale = (beta, 1.0 - beta), max(ch.p1, ch.p2)
        worst = []

        project = improper_gp._project

        def checked(c, ct, p):
            # the engine's per-user projection: trace c, eigenvalues (c ± |ct|) / 2
            out = project(c, ct, p)
            worst.append(max(out[0] - p, -0.5 * (out[0] - abs(out[1]))))
            return out

        monkeypatch.setattr(improper_gp, "_project", checked)
        _, runs = multistart(ch, w, n_starts=n_starts, seed=seed)
        assert max(worst) <= 1e-12 * scale  # every candidate is feasible
        inits = _multistart_inits(ch, w, n_starts, seed)
        assert len(runs) == len(inits)
        for res, init in zip(runs, inits):
            assert res.converged
            assert res.residual <= 1e-4
            # W is the objective at the returned point, no worse than the start's
            assert abs(wsr(ch, res.m1, res.m2, *w) - res.W) <= 1e-12
            assert res.W >= wsr(ch, *init, *w) - 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_stop_in_units_of_each_budget(self, fig1, beta):
        # transmitter 2 in other units: links times 1e-3, budget times 1e6.  A
        # stop at GP_EPS times the larger budget allowed user 1 a residual of
        # 10, its whole budget, and every start reported converged
        ch = replace(fig1, h12=fig1.h12 * 1e-3, h22=fig1.h22 * 1e-3, p2=fig1.p2 * 1e6)
        w = (beta, 1.0 - beta)
        _, runs = multistart(ch, w)
        assert sum(res.converged for res in runs) >= 20
        for res in runs:
            g = wsr_gradient(ch, res.m1, res.m2, w)
            parts = [np.linalg.norm(project_psd_trace(m + gk, p) - m) / p
                     for m, gk, p in zip((res.m1, res.m2), g, (ch.p1, ch.p2))]
            norm = np.hypot(*parts)
            assert not res.converged or norm <= GP_EPS * (1 + 1e-9)
            assert abs(norm - res.residual) <= 1e-9 * max(norm, GP_EPS)
