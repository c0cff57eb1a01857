import warnings
from dataclasses import replace

import numpy as np
import pytest

from tinregion import (
    DualVariables,
    RateProfile,
    SimoChannel,
    TxStrategy,
    ValidationError,
    balance_pure_proper,
    composite_cov_from_strategy,
    contains,
    convex_hull_2d,
    cutting_plane,
    multistart,
    primal_recovery,
    rate_complex,
    rate_composite,
    rate_proper,
    strategy_from_composite_cov,
    sweep_region,
    transform_channel,
    transformed_rates,
    validate_channel,
)
from tinregion.channel import (
    _reduced_qr, composite_real_embed, enhance_channel, load_scenario, unit_budgets,
    validate_eps,
)
from tinregion.improper_gp import gradient_projection, random_improper_init
from tinregion.rates import mmse_filter

from conftest import random_channel, random_strategy, scenario_dict


class TestValidation:
    def test_preset_accepted(self, fig1):
        assert validate_channel(fig1) is fig1

    def test_negative_power(self, fig1):
        bad = SimoChannel(fig1.h11, fig1.h12, fig1.h21, fig1.h22, p1=-1.0, p2=10.0)
        with pytest.raises(ValidationError, match="negative power"):
            validate_channel(bad)

    def test_dimension_mismatch(self, fig1):
        bad = SimoChannel(fig1.h11, fig1.h12[:1], fig1.h21, fig1.h22, 10.0, 10.0)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            validate_channel(bad)

    def test_non_finite(self, fig1):
        h = fig1.h11.copy()
        h[0] = np.nan
        bad = SimoChannel(h, fig1.h12, fig1.h21, fig1.h22, 10.0, 10.0)
        with pytest.raises(ValidationError, match="non-finite"):
            validate_channel(bad)

    @pytest.mark.parametrize("links, power", [(1e100, 1.0), (1.0, 1e200), (1e77, 1.0)])
    def test_gains_overflow(self, fig1, links, power):
        # |h_kk|^2 P_k |h_kj|^2 P_j past 1e308: the time-sharing solver
        # warned of an overflow and then blamed multipliers never passed to it
        bad = replace(fig1, h11=fig1.h11 * links, h12=fig1.h12 * links, h21=fig1.h21 * links,
                      h22=fig1.h22 * links, p1=np.float64(fig1.p1 * power),
                      p2=np.float64(fig1.p2 * power))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: validate_channel(bad),
                        lambda: sweep_region(bad, "proper-timesharing", [0.5])):
                with pytest.raises(ValidationError, match="channel: the gains"):
                    run()
        # one transmitter's gains alone stay finite
        validate_channel(replace(bad, h12=0 * bad.h12, h21=0 * bad.h21))


_LIST_ENTRY_POINTS = {
    "rate_proper": lambda ch: rate_proper(ch, 3.0, 7.0),
    "balance_pure_proper": lambda ch: balance_pure_proper(ch, RateProfile(0.5, 0.5)).rates,
    "proper-timesharing": lambda ch: sweep_region(ch, "proper-timesharing", [0.25, 0.5]).points(),
    "rate_complex": lambda ch: rate_complex(ch, TxStrategy(3.0, 7.0, 1.0 + 2.0j, -4.0)),
    "multistart": lambda ch: multistart(ch, (0.5, 0.5), n_starts=3)[0].W,
    "transform_channel": transform_channel,
}


@pytest.mark.parametrize("entry", sorted(_LIST_ENTRY_POINTS))
def test_links_given_as_lists(entry):
    # links given as Python lists are stored as complex arrays, so every
    # entry point solves the channel as it does the same links as arrays
    links = {"h11": [1.0, 0.5], "h12": [0.2, 0.1], "h21": [0.3, 0], "h22": [0.9, 0.4]}
    listed = validate_channel(SimoChannel(**links, p1=10.0, p2=10.0))
    for name, v in links.items():
        h = getattr(listed, name)
        assert isinstance(h, np.ndarray) and h.dtype == complex and h.tolist() == v
    arrays = SimoChannel(**{k: np.array(v, dtype=complex) for k, v in links.items()},
                         p1=10.0, p2=10.0)
    assert _LIST_ENTRY_POINTS[entry](listed) == _LIST_ENTRY_POINTS[entry](arrays)


def test_unit_budgets(fig1):
    # power p_k on a channel is p_k / P_k at unit budgets; a zero budget
    # zeroes the links of its transmitter
    ch = replace(fig1, p1=4.0, p2=0.25)
    unit = unit_budgets(ch)
    assert (unit.p1, unit.p2) == (1.0, 1.0)
    for p1, p2 in ((4.0, 0.25), (1.0, 0.1), (40.0, 3.0), (0.0, 0.5)):
        np.testing.assert_allclose(rate_proper(unit, p1 / 4.0, p2 / 0.25),
                                   rate_proper(ch, p1, p2), rtol=1e-13, atol=0)
    silent = unit_budgets(replace(ch, p2=0.0))
    assert not silent.h12.any() and not silent.h22.any()
    np.testing.assert_array_equal(silent.h11, unit.h11)


_EPS_SOLVERS = {
    "balance_pure_proper": lambda ch, eps: balance_pure_proper(
        ch, RateProfile(0.5, 0.5), eps=eps
    ),
    "cutting_plane": lambda ch, eps: cutting_plane(
        ch, RateProfile(0.5, 0.5), eps=eps
    ),
    "gradient_projection": lambda ch, eps: gradient_projection(
        ch, (1.0, 1.0), random_improper_init(ch, np.random.default_rng(0)), eps=eps
    ),
    "multistart": lambda ch, eps: multistart(ch, (1.0, 1.0), n_starts=1, eps=eps),
}


@pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("solver", sorted(_EPS_SOLVERS))
def test_solver_rejects_bad_eps(fig1, solver, eps):
    with pytest.raises(ValidationError, match="eps must be positive and finite"):
        _EPS_SOLVERS[solver](fig1, eps)


_NON_REAL = {
    "p1-str": lambda ch: validate_channel(replace(ch, p1="10")),
    "p1-none": lambda ch: validate_channel(replace(ch, p1=None)),
    "p1-complex": lambda ch: validate_channel(replace(ch, p1=1 + 1j)),
    "p1-array": lambda ch: validate_channel(replace(ch, p1=np.array([1.0, 2.0]))),
    "eps": lambda ch: validate_eps("x"),
    "balance-eps": lambda ch: balance_pure_proper(ch, RateProfile(0.5, 0.5), eps="x"),
    "cutting-plane-eps": lambda ch: cutting_plane(ch, RateProfile(0.5, 0.5), eps="x"),
    "rate-proper-power": lambda ch: rate_proper(ch, "1", 2),
    "strategy-variance": lambda ch: rate_complex(ch, TxStrategy("a", 1)),
    "strategy-pseudovariance": lambda ch: rate_complex(ch, TxStrategy(1, 1, "a")),
    "composite-pseudovariance": lambda ch: composite_cov_from_strategy(1.0, "a"),
    "profile": lambda ch: RateProfile("a", 0.5),
    "profile-beta": lambda ch: RateProfile.from_beta("0.5"),
    "multiplier": lambda ch: DualVariables("a", 1.0, 0.1, 0.1),
    "beta": lambda ch: sweep_region(ch, "proper-pure", ["a"]),
    "channel-vector-str": lambda ch: validate_channel(replace(ch, h11=["a", "b"])),
    "channel-vector-ragged": lambda ch: validate_channel(replace(ch, h11=[1.0, [1.0, 2.0]])),
    "strategy-tuple": lambda ch: rate_complex(ch, (1.0, 1.0)),
    "seed-str": lambda ch: multistart(ch, (0.5, 0.5), n_starts=1, seed="x"),
    "seed-float": lambda ch: multistart(ch, (0.5, 0.5), n_starts=1, seed=1.5),
    "seed-negative": lambda ch: multistart(ch, (0.5, 0.5), n_starts=1, seed=-1),
    "sweep-seed": lambda ch: sweep_region(ch, "improper-heuristic", [0.5], seed=None),
    "contains-point": lambda ch: contains(convex_hull_2d([(1.0, 1.0)]), ("a", 1)),
    "contains-tol": lambda ch: contains(convex_hull_2d([(1.0, 1.0)]), (0.5, 0.5), tol="x"),
    "contains-tol-nan": lambda ch: contains(
        convex_hull_2d([(1.0, 1.0)]), (0.5, 0.5), tol=float("nan")),
    "cutting-plane-profile": lambda ch: cutting_plane(ch, (0.5, 0.5), eps=1e-2),
    "balance-profile": lambda ch: balance_pure_proper(ch, (0.5, 0.5)),
    "recovery-profile": lambda ch: primal_recovery(_cuts(ch), (0.5, 0.5), ch),
    "recovery-channel": lambda ch: primal_recovery(_cuts(ch), RateProfile(0.5, 0.5), "fig1"),
    "mmse-filter-power": lambda ch: mmse_filter(ch, 1, "a"),
    "seed-cuts": lambda ch: cutting_plane(ch, RateProfile(0.5, 0.5), eps=2e-2, seed_cuts=[1, 2]),
    "seed-cuts-scalar": lambda ch: cutting_plane(ch, RateProfile(0.5, 0.5), eps=2e-2,
                                                 seed_cuts=1),
    "recovery-cuts": lambda ch: primal_recovery([1, 2], RateProfile(0.5, 0.5), ch),
    "contains-short-point": lambda ch: contains(convex_hull_2d([(1.0, 1.0)]), (1.0,)),
    "contains-region": lambda ch: contains(None, (0.5, 0.5)),
    "hull-point": lambda ch: convex_hull_2d([1.0]),
    "betas-scalar": lambda ch: sweep_region(ch, "proper-pure", 0.5),
}


def _cuts(ch):
    return cutting_plane(ch, RateProfile(0.5, 0.5), eps=2e-2).cuts


@pytest.mark.parametrize("case", sorted(_NON_REAL))
def test_non_real_scalars_raise_validation_error(fig1, case):
    with pytest.raises(ValidationError, match="must be a"):
        _NON_REAL[case](fig1)


class TestEmbedding:
    def test_scalar_one(self):
        np.testing.assert_allclose(composite_real_embed(1.0), np.eye(2))

    def test_scalar_j(self):
        np.testing.assert_allclose(
            composite_real_embed(1j), [[0.0, -1.0], [1.0, 0.0]]
        )

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            np.testing.assert_allclose(
                composite_real_embed(a) @ composite_real_embed(b),
                composite_real_embed(a @ b),
                atol=1e-12,
            )


class TestCompositeCov:
    def test_proper(self):
        np.testing.assert_allclose(composite_cov_from_strategy(2.0, 0.0), np.eye(2))

    def test_maximally_improper(self):
        np.testing.assert_allclose(
            composite_cov_from_strategy(2.0, 2.0), np.diag([2.0, 0.0])
        )

    def test_against_general_form(self):
        # frozen from the full covariance relation applied to 1x1 matrices
        m = composite_cov_from_strategy(1.0, 0.5 * np.exp(1j * np.pi / 3))
        np.testing.assert_allclose(
            m,
            [[0.625, 0.21650635094610965], [0.21650635094610965, 0.375]],
            atol=1e-15,
        )

    def test_trace_and_eigs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = 10 * rng.uniform()
            ct = c * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            m = composite_cov_from_strategy(c, ct)
            assert abs(np.trace(m) - c) < 1e-12
            eig = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(
                sorted(eig), sorted([(c - abs(ct)) / 2, (c + abs(ct)) / 2]),
                atol=1e-12,
            )

    def test_invalid_pseudovariance(self):
        with pytest.raises(ValidationError, match="pseudovariance"):
            composite_cov_from_strategy(1.0, 2.0)

    def test_round_trip(self):
        assert strategy_from_composite_cov(np.eye(2)) == (2.0, 0.0)
        c, ct = strategy_from_composite_cov(np.diag([2.0, 0.0]))
        assert (c, ct) == (2.0, 2.0 + 0.0j)
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = 10 * rng.uniform()
            ct = c * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            c2, ct2 = strategy_from_composite_cov(composite_cov_from_strategy(c, ct))
            assert abs(c - c2) < 1e-12 and abs(ct - ct2) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            strategy_from_composite_cov([[1.0, 0.5], [-0.5, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="indefinite"):
            strategy_from_composite_cov([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, fig1, bad):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValidationError, match="non-finite"):
                strategy_from_composite_cov(m)
            with pytest.raises(ValidationError, match="non-finite"):
                rate_composite(fig1, m, np.eye(2))
        for c, ct in ((bad, 0.0), (1.0, complex(0.0, bad)), (bad, bad)):
            with pytest.raises(ValidationError, match="non-finite"):
                composite_cov_from_strategy(c, ct)


class TestReducedQr:
    def test_consistency(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            for _ in range(20):
                hkk = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                hkj = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                hk, ak, bk, phik = _reduced_qr(hkk, hkj)
                assert hk >= 0 and ak >= 0 and bk >= 0
                # [hkk hkj] = Q R with orthonormal Q, so the Gram matrices agree
                r = np.array([[hk, ak * np.exp(1j * phik)], [0.0, bk]])
                a = np.stack([hkk, hkj], axis=1)
                np.testing.assert_allclose(
                    r.conj().T @ r, a.conj().T @ a, atol=1e-12
                )

    def test_real_upper_triangular_case(self):
        hk, ak, bk, phik = _reduced_qr(
            np.array([1.0, 0.0], dtype=complex),
            np.array([0.6, 0.8], dtype=complex),
        )
        assert abs(hk - 1.0) < 1e-15
        assert abs(ak - 0.6) < 1e-15
        assert abs(bk - 0.8) < 1e-15
        assert phik == 0.0

    def test_zero_direct_link(self):
        with pytest.raises(ValidationError, match="zero direct channel"):
            _reduced_qr(np.zeros(2, complex), np.ones(2, complex))

    def test_zero_cross_completion(self):
        hk, ak, bk, phik = _reduced_qr(
            np.array([1.0 + 1j, 2.0 - 1j]), np.zeros(2, complex)
        )
        assert ak == 0.0 and bk == 0.0


class TestTransform:
    def test_rate_invariance_fig1(self, fig1):
        tc = transform_channel(fig1)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            x = random_strategy(rng)
            ro = rate_complex(fig1, x)
            rt = transformed_rates(tc, x)
            worst = max(worst, abs(ro.r1 - rt.r1), abs(ro.r2 - rt.r2))
        assert worst <= 1e-10

    def test_rate_invariance_random_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ch = random_channel(rng, n1=rng.integers(1, 4), n2=rng.integers(1, 4))
            tc = transform_channel(ch)
            for _ in range(5):
                x = random_strategy(rng)
                ro = rate_complex(ch, x)
                rt = transformed_rates(tc, x)
                assert abs(ro.r1 - rt.r1) <= 1e-10
                assert abs(ro.r2 - rt.r2) <= 1e-10

    def test_z_channel(self, fig3):
        tc = transform_channel(fig3)
        assert tc.ak[0] == 0.0 and tc.bk[0] == 0.0
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_strategy(rng)
            ro = rate_complex(fig3, x)
            rt = transformed_rates(tc, x)
            assert abs(ro.r1 - rt.r1) <= 1e-10
            assert abs(ro.r2 - rt.r2) <= 1e-10

    def test_theta_independence_proper(self, fig1):
        from dataclasses import replace

        tc = transform_channel(fig1)
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = TxStrategy(10 * rng.uniform(), 10 * rng.uniform())
            base = transformed_rates(tc, x)
            rot = transformed_rates(
                replace(tc, theta=rng.uniform(0, 2 * np.pi)), x
            )
            assert abs(base.r1 - rot.r1) <= 1e-12
            assert abs(base.r2 - rot.r2) <= 1e-12

    def test_enhance(self, fig1):
        tc = transform_channel(fig1)
        etc = enhance_channel(tc)
        assert etc.theta == 0.0
        assert etc.hk == tc.hk and etc.ak == tc.ak and etc.bk == tc.bk
        assert enhance_channel(etc) == etc


class TestScenarioIo:
    def test_round_trip(self, fig2):
        again = load_scenario(scenario_dict(fig2))
        np.testing.assert_allclose(again.h11, fig2.h11)
        np.testing.assert_allclose(again.h21, fig2.h21)
        assert again.p1 == fig2.p1

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing field"):
            load_scenario({"h11": [[1, 0]]})

    def test_malformed(self):
        with pytest.raises(ValidationError):
            load_scenario({"h11": "nope", "h12": [], "h21": [], "h22": [],
                           "p1": 1, "p2": 1})
