from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    ConvergenceError,
    RateProfile,
    ValidationError,
    balance_pure_proper,
    rate_proper,
)
from tinregion.proper_pure import GAMMA_CAP, dominant_eigenpair, gamma_of_R
from tinregion.rates import mmse_filter

from conftest import filter_sinr, pure_balanced_oracle, random_channel


def _char_poly_dominant_root(a):
    """Independent oracle: largest real root of the cubic characteristic
    polynomial, coefficients from trace/minors/determinant."""
    a = np.asarray(a, dtype=float)
    tr = np.trace(a)
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = np.linalg.det(a)
    roots = np.roots([1.0, -tr, minors, -det])
    real = roots[np.abs(roots.imag) < 1e-8].real
    return float(real.max())


class TestDominantEigenpair:
    def test_identity(self):
        lam, _ = dominant_eigenpair(np.eye(3))
        assert abs(lam - 1.0) <= 1e-10

    def test_analytic_pair(self):
        lam, v = dominant_eigenpair(
            np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        )
        assert abs(lam - 3.0) <= 1e-9
        v = v / np.linalg.norm(v)
        target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) <= 1e-6

    def test_against_cubic_root_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = rng.uniform(0, 2, size=(3, 3))
            lam, v = dominant_eigenpair(a)
            assert abs(lam - _char_poly_dominant_root(a)) <= 1e-8 * max(1.0, lam)
            # eigen residual
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * max(
                1.0, lam
            ) * np.linalg.norm(v)

    def test_last_entry_normalization(self):
        a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        _, v = dominant_eigenpair(a)
        assert abs(v[2] - 1.0) <= 1e-12

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            dominant_eigenpair(-np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        a = np.ones((3, 3))
        a[1, 2] = bad
        with pytest.raises(ValidationError):
            dominant_eigenpair(a)

    def test_zero_matrix(self):
        lam, v = dominant_eigenpair(np.zeros((3, 3)))
        assert lam == 0.0
        assert np.isfinite(v).all() and (v >= 0).all() and v.any()

    # Block-diagonal and reducible matrices with their Perron roots.  The
    # first four have a repeated Perron root (the fourth a Jordan block);
    # the sixth has the zero first column of a one-sided balance matrix.
    @pytest.mark.parametrize("a, root", [
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 1.0),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 1.0),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2.0),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 0.5]], 1.0),
        ([[1, 2, 0], [2, 1, 0], [0, 0, 5]], 5.0),
        ([[0, 3, 0.2], [0, 0, 0.1], [0, 0.03, 0.02]], 0.01 + np.sqrt(0.0031)),
        ([[0, 0, 1], [0, 0, 1], [0, 0, 1]], 1.0),
    ])
    def test_reducible_nonnegative_vector(self, a, root):
        a = np.array(a, dtype=float)
        lam, v = dominant_eigenpair(a)
        assert abs(lam - root) <= 1e-12 * max(1.0, root)
        assert (v >= 0).all() and v.any()
        assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * max(
            1.0, lam
        ) * np.linalg.norm(v)


class TestGamma:
    def test_zero_targets(self, fig1):
        assert gamma_of_R(fig1, RateProfile(0.5, 0.5), 0.0) == GAMMA_CAP

    def test_monotone_in_R(self, fig1):
        prof = RateProfile(0.5, 0.5)
        grid = np.linspace(0.5, 8.0, 12)
        vals = [gamma_of_R(fig1, prof, r) for r in grid]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_single_user_profile(self, fig1):
        g = gamma_of_R(fig1, RateProfile(1.0, 0.0), 4.0)
        expected = 10 * np.linalg.norm(fig1.h11) ** 2 / (2.0**4.0 - 1.0)
        assert abs(g - expected) <= 1e-12


class TestBalance:
    def test_corner_profiles(self, fig1):
        res = balance_pure_proper(fig1, RateProfile(1.0, 0.0))
        assert abs(res.rates.r1 - 4.22659234751577) <= 1e-3
        assert res.p1 == fig1.p1 and res.p2 == 0.0
        res = balance_pure_proper(fig1, RateProfile(0.0, 1.0))
        assert abs(res.rates.r2 - 4.77534426964198) <= 1e-3

    def test_edge_root_gap_certificate(self, fig1):
        # R from the edge root is feasible by the Perron margin, and the
        # certified gap leaves nothing feasible 1e-5 above it
        prof = RateProfile(0.5, 0.5)
        res = balance_pure_proper(fig1, prof, eps=1e-6)
        assert gamma_of_R(fig1, prof, res.R) >= 1.0 - 1e-9
        assert gamma_of_R(fig1, prof, res.R + 1e-5) < 1.0

    def test_rates_meet_targets(self, fig1, fig2):
        for ch in (fig1, fig2):
            for beta in (0.25, 0.5, 0.7):
                prof = RateProfile(beta, 1.0 - beta)
                res = balance_pure_proper(ch, prof, eps=1e-7)
                assert res.rates.r1 >= prof.rho1 * res.R - 1e-5
                assert res.rates.r2 >= prof.rho2 * res.R - 1e-5
                assert res.p1 <= ch.p1 + 1e-8
                assert res.p2 <= ch.p2 + 1e-8

    def test_against_power_grid_oracle(self, fig1):
        # dense grid + local refinement on the scalar max-min objective
        prof = RateProfile(0.5, 0.5)
        res = balance_pure_proper(fig1, prof, eps=1e-8)

        def minrate(p1, p2):
            r = rate_proper(fig1, p1, p2)
            return min(r.r1 / prof.rho1, r.r2 / prof.rho2)

        lo = np.zeros(2)
        span = np.array([10.0, 10.0])
        best = 0.0
        for _ in range(8):
            p1 = np.linspace(lo[0], min(lo[0] + span[0], 10), 41)
            p2 = np.linspace(lo[1], min(lo[1] + span[1], 10), 41)
            vals = np.array([[minrate(a, b) for b in p2] for a in p1])
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            best = max(best, vals[i, j])
            center = np.array([p1[i], p2[j]])
            span = span * 0.25
            lo = np.clip(center - span / 2, 0, 10)
        assert abs(res.R - best) <= 2e-3

    @pytest.mark.parametrize("power", [1e2, 1e3, 1e4])
    def test_high_snr_against_edge_oracle(self, fig1, power):
        ch = replace(fig1, p1=power, p2=power)
        res = balance_pure_proper(ch, RateProfile(0.5, 0.5))
        oracle, _ = pure_balanced_oracle(ch)
        assert abs(res.R - 2.0 * oracle) <= 1e-6

    def test_z_channel(self, fig3):
        res = balance_pure_proper(fig3, RateProfile(0.5, 0.5), eps=1e-7)
        assert res.rates.r1 >= 0.5 * res.R - 1e-5
        assert res.rates.r2 >= 0.5 * res.R - 1e-5

    def test_random_channels(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            ch = random_channel(rng)
            res = balance_pure_proper(ch, RateProfile(0.4, 0.6), eps=1e-6)
            assert res.rates.r1 >= 0.4 * res.R - 1e-4
            assert res.rates.r2 >= 0.6 * res.R - 1e-4


def _edge_root_channels():
    """Random draws with 1-4 antennas and budgets from 1e-2 to 1e3, a zeroed
    cross link, and cross links nearly along the direct links."""
    rng = np.random.default_rng(24)
    chans = [
        random_channel(rng, n1=n, n2=m, p=p)
        for n, m, p in ((1, 1, 1e-2), (1, 2, 1.0), (2, 1, 1e3), (2, 2, 10.0),
                        (3, 3, 1e2), (4, 2, 0.1), (4, 4, 1e3), (3, 1, 30.0))
    ]
    base = random_channel(rng, n1=2, n2=3, p=10.0)
    chans.append(replace(base, h21=np.zeros(3)))
    tilt = lambda h: 0.7 * h + 1e-6 * (rng.standard_normal(h.shape)
                                       + 1j * rng.standard_normal(h.shape))
    chans.append(replace(base, h12=tilt(base.h11), h21=tilt(base.h22), p1=1e2))
    return chans


class TestEdgeRoot:
    """The edge root against two oracles that share no code with it: the
    brentq edge oracle of the tests and the Perron feasibility margin."""

    @pytest.mark.parametrize("ch", _edge_root_channels())
    def test_against_oracles(self, ch):
        eps = 1e-8
        for beta in np.linspace(0.0, 1.0, 11):
            prof = RateProfile.from_beta(beta)
            res = balance_pure_proper(ch, prof, eps=eps)
            oracle, _ = pure_balanced_oracle(ch, (prof.rho1, prof.rho2))
            assert abs(res.R - oracle) <= eps + 1e-12 * oracle, beta
            assert gamma_of_R(ch, prof, res.R) >= 1.0 - 1e-9, beta
            assert gamma_of_R(ch, prof, res.R + 1e-5) < 1.0, beta
            assert res.rates.r1 >= prof.rho1 * res.R * (1 - 1e-15)
            assert res.rates.r2 >= prof.rho2 * res.R * (1 - 1e-15)
            assert 0.0 <= res.p1 <= ch.p1 and 0.0 <= res.p2 <= ch.p2

    def test_rates_are_those_of_the_powers(self, fig2):
        res = balance_pure_proper(fig2, RateProfile(0.3, 0.7))
        assert tuple(res.rates) == tuple(rate_proper(fig2, res.p1, res.p2))
        assert max(res.p1 / fig2.p1, res.p2 / fig2.p2) == 1.0

    def test_eps_below_rate_resolution_ends(self):
        # the step cap ends the search: a point at the oracle, or a typed error
        rng = np.random.default_rng(25)
        outcomes = set()
        for _ in range(40):
            ch = random_channel(rng, n1=rng.integers(1, 5), n2=rng.integers(1, 5),
                                p=10 ** rng.uniform(-2, 3))
            prof = RateProfile.from_beta(rng.uniform())
            try:
                res = balance_pure_proper(ch, prof, eps=1e-300)
            except ConvergenceError:
                outcomes.add("raised")
                continue
            oracle, _ = pure_balanced_oracle(ch, (prof.rho1, prof.rho2))
            assert abs(res.R - oracle) <= 1e-11 * oracle
            outcomes.add("solved")
        assert "solved" in outcomes


class TestMmseFilterProperties:
    def test_filter_optimal_within_balance(self, fig2):
        # the returned filter beats sampled alternatives at the same powers
        rng = np.random.default_rng(22)
        w1 = mmse_filter(fig2, 1, 3.0)
        base, _ = filter_sinr(fig2, w1, fig2.h22, 5.0, 3.0)
        for _ in range(100):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g, _ = filter_sinr(fig2, w, fig2.h22, 5.0, 3.0)
            assert g <= base + 1e-12
