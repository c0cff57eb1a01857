import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tinregion import (
    TxStrategy,
    ValidationError,
    channel_from_transform,
    composite_cov_from_strategy,
    enhanced_upper_bound,
    rate_complex,
    rate_composite,
    rate_proper,
    strategy_from_composite_cov,
    transform_channel,
    transformed_rates,
)
from tinregion.channel import PSD_TOL, check_composite_cov
from tinregion.rates import _proper_gains, _proper_rates, mmse_filter

from conftest import (
    composite_rates, composite_real_embed, filter_sinr, mp_rates_and_gradients,
    random_channel, random_strategy,
)


class TestEndpoints:
    def test_fig1_user1(self, fig1):
        r = rate_complex(fig1, TxStrategy(10.0, 0.0))
        assert abs(r.r1 - 4.22659234751577) <= 1e-3
        assert r.r2 == 0.0

    def test_fig1_user2(self, fig1):
        r = rate_complex(fig1, TxStrategy(0.0, 10.0))
        assert abs(r.r2 - 4.77534426964198) <= 1e-3
        assert r.r1 == 0.0


def _check_composite(ch, m1, m2):
    # rate_composite evaluates rate_complex's n x n complex determinants;
    # the oracle takes the 2n x 2n real ones of the composite representation
    np.testing.assert_allclose(rate_composite(ch, m1, m2), composite_rates(ch, m1, m2),
                               rtol=1e-12, atol=0)


class TestFormulaEquivalence:
    def test_complex_vs_composite(self, fig1):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = random_strategy(rng)
            _check_composite(fig1, composite_cov_from_strategy(x.c1, x.ct1),
                             composite_cov_from_strategy(x.c2, x.ct2))

    def test_complex_vs_composite_random_channels(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ch = random_channel(rng, n1=rng.integers(1, 4), n2=rng.integers(1, 4))
            x = random_strategy(rng)
            _check_composite(ch, composite_cov_from_strategy(x.c1, x.ct1),
                             composite_cov_from_strategy(x.c2, x.ct2))

    def test_proper_equals_complex(self, fig2):
        # the closed form against the determinant formula, on fig2 and on
        # random channels with 1 to 4 receive antennas per user
        rng = np.random.default_rng(12)
        channels = [fig2] + [
            random_channel(rng, n1=rng.integers(1, 5), n2=rng.integers(1, 5))
            for _ in range(20)
        ]
        for ch in channels:
            for _ in range(50):
                p1, p2 = 10 * rng.uniform(), 10 * rng.uniform()
                ra = rate_proper(ch, p1, p2)
                rb = rate_complex(ch, TxStrategy(p1, p2))
                assert abs(ra.r1 - rb.r1) <= 1e-12
                assert abs(ra.r2 - rb.r2) <= 1e-12

    def test_proper_cross_link_along_direct_link(self):
        # where h_kj = s h_kk (always so on one antenna) the MMSE gain is
        # g / (1 + p n); the form g - p x / (1 + p n) cancelled there, by up
        # to 3.0e-6 bit at p = 1e9 and 2.6e-9 at 1e6 on these channels
        rng = np.random.default_rng(13)
        channels = [random_channel(rng, n1=1, n2=1) for _ in range(200)]
        for _ in range(20):
            ch = random_channel(rng)
            s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            channels.append(replace(ch, h12=s[0] * ch.h11, h21=s[1] * ch.h22))
        for ch in channels:
            g = np.array([np.sum(np.abs(h) ** 2) for h in (ch.h11, ch.h22)])
            n = np.array([np.sum(np.abs(h) ** 2) for h in (ch.h12, ch.h21)])
            for p in (1e3, 1e6, 1e9):
                want = np.log1p(p * g / (1 + p * n)) / np.log(2)
                np.testing.assert_allclose(rate_proper(ch, p, p), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p1, p2", [
        (-1.0, 2.0), (2.0, -1e-300), (np.inf, 2.0), (2.0, np.nan),
    ])
    def test_proper_rejects_bad_powers(self, fig1, p1, p2):
        with pytest.raises(ValidationError, match="powers"):
            rate_proper(fig1, p1, p2)

    @pytest.mark.parametrize("x", [
        TxStrategy(-1.0, 2.0),                # negative variance
        TxStrategy(2.0, 3.0, 0.0, 3.5j),      # |ct| > c
        TxStrategy(2.0, 3.0, np.nan, 0.0),    # NaN entry
    ], ids=["negative", "pseudovariance", "nan"])
    def test_strategy_formulas_reject_bad_strategies(self, fig1, x):
        tc = transform_channel(fig1)
        for rates in (
            lambda: rate_complex(fig1, x),
            lambda: transformed_rates(tc, x),
            lambda: enhanced_upper_bound(tc, x),
        ):
            with pytest.raises(ValidationError, match="strategy user"):
                rates()


class TestComposite:
    def test_zero_signal(self, fig1):
        r = rate_composite(fig1, np.zeros((2, 2)), np.zeros((2, 2)))
        assert r == (0.0, 0.0)
        _check_composite(fig1, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_proper_case(self, fig1):
        r = rate_composite(fig1, np.diag([5.0, 5.0]), np.diag([5.0, 5.0]))
        rp = rate_complex(fig1, TxStrategy(10.0, 10.0))
        assert abs(r.r1 - rp.r1) <= 1e-12
        assert abs(r.r2 - rp.r2) <= 1e-12
        _check_composite(fig1, np.diag([5.0, 5.0]), np.diag([5.0, 5.0]))

    def test_against_determinant_oracle(self, fig1):
        # frozen from an independent cofactor-expansion determinant
        r = rate_composite(fig1, np.diag([10.0, 0.0]), np.diag([0.0, 10.0]))
        assert abs(r.r1 - 2.196389840092468) <= 1e-10
        assert abs(r.r2 - 2.102310687691399) <= 1e-10
        _check_composite(fig1, np.diag([10.0, 0.0]), np.diag([0.0, 10.0]))

    def test_random_channels_against_real_determinants(self):
        # 1-4 antennas per receiver, maximally improper inputs among them
        rng = np.random.default_rng(16)
        for _ in range(20):
            ch = random_channel(rng, n1=rng.integers(1, 5), n2=rng.integers(1, 5))
            for f1, f2 in ((0.0, 0.0), (1.0, 1.0), (0.5, 1.0), (None, None), (None, None)):
                x = random_strategy(rng)  # its own pseudovariances where f is None
                m1 = composite_cov_from_strategy(x.c1, x.ct1 if f1 is None else f1 * x.c1)
                m2 = composite_cov_from_strategy(x.c2, x.ct2 if f2 is None else f2 * x.c2)
                _check_composite(ch, m1, m2)

    def test_psd_slack_at_large_budget(self, fig1):
        # check_composite_cov takes a PSD slack relative to the matrix's
        # scale, here |ct| - c = 1e-6 at c = 1e6: the strategy read from it
        # is clipped to |ct| = c rather than rejected by the absolute 1e-9
        # of validate_strategy
        m = np.diag([1e6, -0.5 * PSD_TOL * 1e6])
        check_composite_cov(m)
        c, ct = strategy_from_composite_cov(m)
        assert c == 1e6 - 0.5 * PSD_TOL * 1e6 and ct == c
        r = rate_composite(fig1, m, np.eye(2))
        assert r == rate_complex(fig1, TxStrategy(c, 2.0, ct, 0.0))


class TestSinr:
    def test_matched_filter_no_interference(self, fig1):
        g1, g2 = filter_sinr(fig1, fig1.h11, fig1.h22, 3.0, 0.0)
        assert abs(g1 - 3.0 * np.linalg.norm(fig1.h11) ** 2) <= 1e-10
        assert g2 == 0.0

    def test_mmse_matches_proper_rate(self, fig1, fig2):
        for ch in (fig1, fig2):
            w1 = mmse_filter(ch, 1, 10.0)
            w2 = mmse_filter(ch, 2, 10.0)
            g1, g2 = filter_sinr(ch, w1, w2, 10.0, 10.0)
            r = rate_proper(ch, 10.0, 10.0)
            assert abs(np.log2(1 + g1) - r.r1) <= 1e-10
            assert abs(np.log2(1 + g2) - r.r2) <= 1e-10

    def test_mmse_dominates_random_filters(self, fig1):
        rng = np.random.default_rng(13)
        w1 = mmse_filter(fig1, 1, 10.0)
        g_best, _ = filter_sinr(fig1, w1, fig1.h22, 10.0, 10.0)
        for _ in range(100):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g, _ = filter_sinr(fig1, w, fig1.h22, 10.0, 10.0)
            assert g <= g_best + 1e-12

    def test_mmse_reduces_to_matched(self, fig1):
        np.testing.assert_allclose(mmse_filter(fig1, 1, 0.0), fig1.h11, atol=1e-12)

    @pytest.mark.parametrize("p_j", [-1.0, np.nan, np.inf])
    def test_mmse_rejects_bad_power(self, fig1, p_j):
        with pytest.raises(ValidationError, match="interferer power"):
            mmse_filter(fig1, 1, p_j)

    def test_orthogonal_interference(self):
        from tinregion.channel import SimoChannel

        hkk = np.array([1.0 + 0j, 0.0])
        hkj = np.array([0.0, 2.0 + 0j])
        ch = SimoChannel(hkk, hkj, hkj, hkk, 10.0, 10.0)
        w = mmse_filter(ch, 1, 7.0)
        # filter stays proportional to the direct channel
        cosine = abs(np.vdot(w, hkk)) / (np.linalg.norm(w) * np.linalg.norm(hkk))
        assert abs(cosine - 1.0) <= 1e-12


class TestImproperCorrection:
    def test_sign_varies_but_rate_stays_nonnegative(self, fig1):
        rng = np.random.default_rng(15)
        signs = set()
        for _ in range(200):
            x = random_strategy(rng)
            total = rate_complex(fig1, x)
            proper_part = rate_proper(fig1, x.c1, x.c2)
            signs.add(np.sign(round(total.r1 - proper_part.r1, 12)))
            assert total.r1 >= 0.0 and total.r2 >= 0.0
        assert {-1.0, 1.0} <= signs  # the correction term goes both ways


class TestMonotonicity:
    def test_rate_nondecreasing_in_own_power(self, fig1):
        grid = np.linspace(0, 10, 30)
        rates = [rate_proper(fig1, p, 4.0).r1 for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_interference_hurts(self, fig1):
        for p1 in np.linspace(0, 10, 10):
            assert (
                rate_proper(fig1, p1, 10.0).r1
                <= rate_proper(fig1, p1, 0.0).r1 + 1e-12
            )


class TestProperRatesNearOverflow:
    @pytest.mark.parametrize("scale", [1e74, 1e76])
    def test_matches_exact_rationals(self, fig1, scale):
        # with every link times 1e74 or 1e76, p_k (g_k + p_j c_k) passes
        # 1e308 at these powers before its ratio to 1 + p_j n_k is taken
        gains = _proper_gains(replace(fig1, **{f: getattr(fig1, f) * scale
                                               for f in ("h11", "h12", "h21", "h22")}))
        (g1, g2), _, (n1, n2), (c1, c2) = gains
        p1, p2 = (a.ravel() for a in np.meshgrid(*2 * [[0.0, 1.0, 10.0, 1e5, 1e10]]))
        r1, r2 = _proper_rates(gains, p1, p2)
        for pk, pj, g, n, c, got in ((p1, p2, g1, n1, c1, r1), (p2, p1, g2, n2, c2, r2)):
            for a, b, r in zip(pk, pj, got):
                F = Fraction
                sinr = F(a) * (F(g) + F(b) * F(c)) / (1 + F(b) * F(n))
                assert r == pytest.approx(math.log2(float(1 + sinr)), rel=1e-14), (a, b)


class TestEnhancedBound:
    def test_proper_inputs_attain(self, fig1):
        tc = transform_channel(fig1)
        x = TxStrategy(6.0, 7.0)
        bound = enhanced_upper_bound(tc, x)
        base = rate_proper(channel_from_transform(tc, 10, 10), 6.0, 7.0)
        assert abs(bound.r1 - base.r1) <= 1e-12
        assert abs(bound.r2 - base.r2) <= 1e-12

    def test_dominates_over_phases(self, fig1):
        tc = transform_channel(fig1)
        rng = np.random.default_rng(14)
        worst = -np.inf
        for _ in range(200):
            c1, c2 = 10 * rng.uniform(), 10 * rng.uniform()
            m1, m2 = c1 * rng.uniform(), c2 * rng.uniform()
            bound = enhanced_upper_bound(tc, TxStrategy(c1, c2, m1, m2))
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            x = TxStrategy(c1, c2, m1 * np.exp(1j * a1), m2 * np.exp(1j * a2))
            act = rate_complex(channel_from_transform(tc, 0.0, 0.0), x)
            worst = max(worst, act.r1 - bound.r1, act.r2 - bound.r2)
        assert worst <= 1e-10

    def test_attained_on_enhanced_channel(self, fig1):
        tc = replace(transform_channel(fig1), theta=0.0)
        x = TxStrategy(8.0, 9.0, 3.0, 4.0)
        bound = enhanced_upper_bound(tc, x)
        attained = rate_complex(
            channel_from_transform(tc, 0.0, 0.0), TxStrategy(8.0, 9.0, 3.0, -4.0)
        )
        assert abs(bound.r1 - attained.r1) <= 1e-10
        assert abs(bound.r2 - attained.r2) <= 1e-10


    @pytest.mark.parametrize("p", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    def test_matches_mp_determinants(self, p):
        # the theta-zeroed channel at the anti-aligned strategy by 50-digit
        # determinants, with each |ct_k| 1e-12 to 1e-3 of c_k below it, where
        # an n x n determinant form cancels at large budgets; the last draw
        # has a dead cross link into receiver 1
        rng = np.random.default_rng([35, int(np.log10(p))])
        for i in range(10):
            ch = random_channel(rng, *map(int, rng.integers(1, 5, 2)), p=p)
            tc = transform_channel(replace(ch, h12=ch.h12 * (i < 9)))
            c1, c2 = p * rng.uniform(0.05, 1.0, 2)
            m1, m2 = (c * (1 - 10 ** rng.uniform(-12, -3)) for c in (c1, c2))
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            x = TxStrategy(c1, c2, m1 * np.exp(1j * a1), m2 * np.exp(1j * a2))
            bound = enhanced_upper_bound(tc, x)
            ref = mp_rates_and_gradients(channel_from_transform(replace(tc, theta=0.0), 0, 0),
                                         (c1, complex(abs(x.ct1)), c2, -complex(abs(x.ct2))))[0]
            assert np.all(np.abs(np.subtract(bound, ref)) <= 1e-12 * np.abs(ref)), (bound, ref)


class TestPhaseDerivative:
    def test_receive_determinant_phase_sensitivity(self, fig1):
        # numeric check of the closed-form derivative of det(receive
        # covariance) with respect to the pseudovariance phase difference
        tc = transform_channel(fig1)
        h1, h2 = tc.hk
        a1, a2 = tc.ak
        ch2 = channel_from_transform(tc, 10, 10)
        c1, c2, m1, m2 = 7.0, 6.0, 3.0, 4.0

        def det_cy(k, alpha2):
            x = TxStrategy(c1, c2, m1, m2 * np.exp(1j * alpha2))
            mk1 = composite_cov_from_strategy(x.c1, x.ct1)
            mk2 = composite_cov_from_strategy(x.c2, x.ct2)
            if k == 1:
                hkk, hkj, mkk, mkj = ch2.h11, ch2.h12, mk1, mk2
            else:
                hkk, hkj, mkk, mkj = ch2.h22, ch2.h21, mk2, mk1
            ekk = composite_real_embed(hkk)
            ekj = composite_real_embed(hkj)
            cs = ekj @ mkj @ ekj.T + 0.5 * np.eye(4)
            cy = ekk @ mkk @ ekk.T + cs
            return np.linalg.det(cy)

        h = 1e-6
        for k, hk, akk, extra in ((1, h1, a1, 0.0), (2, h2, a2, 2 * tc.theta)):
            for alpha2 in (0.4, 1.3, 2.9):
                beta = alpha2 + extra
                fd = (det_cy(k, alpha2 + h) - det_cy(k, alpha2 - h)) / (2 * h)
                closed = hk**2 * akk**2 * m1 * m2 * np.sin(beta) / 8.0
                assert abs(fd - closed) <= 1e-4 * max(1.0, abs(closed))
