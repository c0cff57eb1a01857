import numpy as np
import pytest

from tinregion import (
    RatePoint,
    ValidationError,
    contains,
    convex_hull_2d,
    preset_scenario,
    sweep_region,
)
from tinregion.region import RegionCurve, curve_to_csv_rows


class TestPresets:
    def test_fig1_constants(self, fig1):
        np.testing.assert_allclose(
            fig1.h11, [-0.0878 + 0.3457j, 1.0534 + 0.7316j]
        )
        assert fig1.p1 == 10.0 and fig1.p2 == 10.0

    def test_fig2_constants(self, fig2):
        np.testing.assert_allclose(
            fig2.h11, [0.9578 + 2.0563j, -0.7581 + 0.5835j]
        )

    def test_fig3_is_one_sided(self, fig3, fig1):
        np.testing.assert_allclose(fig3.h12, [0.0, 0.0])
        np.testing.assert_allclose(fig3.h21, fig1.h21)

    def test_unknown(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            preset_scenario("fig9")
        with pytest.raises(ValidationError, match="unknown preset"):
            preset_scenario(["fig1"])


class TestSweep:
    def test_pure_endpoints(self, fig1):
        curve = sweep_region(fig1, "proper-pure", [0.0, 1.0])
        (b0, p0), (b1, p1) = curve.samples
        assert b0 == 0.0 and b1 == 1.0
        assert abs(p0.r2 - 4.77534426964198) <= 1e-3 and p0.r1 <= 1e-9
        assert abs(p1.r1 - 4.22659234751577) <= 1e-3 and p1.r2 <= 1e-9

    def test_pure_pareto_consistent(self, fig2):
        curve = sweep_region(fig2, "proper-pure", np.linspace(0, 1, 9))
        pts = curve.points()
        assert all(b.r1 >= a.r1 - 1e-6 for a, b in zip(pts, pts[1:]))
        assert all(b.r2 <= a.r2 + 1e-6 for a, b in zip(pts, pts[1:]))

    def test_improper_sweep_deterministic(self, fig1):
        a = sweep_region(fig1, "improper-heuristic", [0.5], seed=7, n_starts=2)
        b = sweep_region(fig1, "improper-heuristic", [0.5], seed=7, n_starts=2)
        assert a.samples == b.samples

    def test_improper_end_point_breaks_ties_toward_the_other_rate(self, fig3):
        # at beta 1 several starts reach the same W = r1; the curve keeps
        # the one with the largest r2, not the first
        from tinregion.improper_gp import multistart

        _, runs = multistart(fig3, (1.0, 0.0), n_starts=20, seed=10_000)
        top = max(r.W for r in runs)
        tied = [r.rates.r2 for r in runs if r.W == top]
        assert len(tied) > 1 and min(tied) < max(tied) - 1.0
        (_, point), = sweep_region(fig3, "improper-heuristic", [1.0]).samples
        assert point.r1 == top
        assert point.r2 == max(tied)
        assert abs(point.r2 - 3.2764083089246) <= 1e-9

    def test_bad_inputs(self, fig1):
        with pytest.raises(ValidationError):
            sweep_region(fig1, "nope", [0.5])
        with pytest.raises(ValidationError):
            sweep_region(fig1, "proper-pure", [])
        with pytest.raises(ValidationError):
            sweep_region(fig1, "proper-pure", [1.5])
        with pytest.raises(ValidationError):
            sweep_region(fig1, "improper-heuristic", [np.nan, 0.5])


class TestHull:
    def test_collinear_dropped(self):
        hull = convex_hull_2d([(1.0, 1.0), (2.0, 0.0), (0.0, 2.0)])
        assert [tuple(p) for p in hull.points()] == [(0.0, 2.0), (2.0, 0.0)]

    def test_rectangle_corner_kept(self):
        hull = convex_hull_2d([(2.0, 3.0)])
        assert [tuple(p) for p in hull.points()] == [
            (0.0, 3.0), (2.0, 3.0), (2.0, 0.0)
        ]

    def test_idempotent(self):
        rng = np.random.default_rng(50)
        pts = [tuple(p) for p in rng.uniform(0, 5, size=(40, 2))]
        h1 = convex_hull_2d(pts)
        h2 = convex_hull_2d(h1.points())
        assert [tuple(p) for p in h1.points()] == [tuple(p) for p in h2.points()]

    def test_inputs_inside(self):
        rng = np.random.default_rng(51)
        pts = [tuple(p) for p in rng.uniform(0, 5, size=(60, 2))]
        hull = convex_hull_2d(pts)
        for p in pts:
            assert contains(hull, p, tol=1e-9)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            convex_hull_2d([(1.0, 2.0), (bad, 1.0)])


class TestContains:
    def _curve(self):
        samples = tuple(
            (b, RatePoint(r1, r2))
            for b, r1, r2 in [(0.0, 0.0, 4.0), (0.5, 2.0, 3.0), (1.0, 4.0, 0.0)]
        )
        return RegionCurve(method="proper-pure", samples=samples)

    def test_origin(self):
        assert contains(self._curve(), (0.0, 0.0))

    def test_on_curve_and_interior(self):
        c = self._curve()
        assert contains(c, (2.0, 3.0))
        assert contains(c, (1.0, 3.5))     # chord interpolation
        assert contains(c, (0.0, 4.0))
        assert contains(c, (3.9, 0.1), tol=1e-6)

    def test_outside(self):
        c = self._curve()
        assert not contains(c, (2.0, 3.2), tol=0.1)
        assert not contains(c, (4.2, 0.5), tol=0.1)
        assert not contains(c, (-1.0, 1.0))

    def test_vertical_drop(self):
        # a hull whose last vertex shares r1 with its axis point: the chord
        # into that r1 ends at the upper vertex, not at the axis
        samples = ((0.0, RatePoint(0.0, 4.0)), (0.5, RatePoint(4.0, 3.0)),
                   (1.0, RatePoint(4.0, 0.0)))
        c = RegionCurve(method="convex-hull", samples=samples)
        assert contains(c, (1.0, 3.7))
        assert contains(c, (4.0, 3.0))
        assert not contains(c, (1.0, 3.8), tol=1e-3)

    def test_tolerance(self):
        c = self._curve()
        assert contains(c, (2.01, 3.01), tol=2e-2)
        assert not contains(c, (2.01, 3.01), tol=1e-3)

    def test_empty(self):
        with pytest.raises(ValidationError):
            contains(RegionCurve("proper-pure", ()), (0, 0))

    @pytest.mark.parametrize("pt", [(np.nan, 1.0), (1.0, np.inf)])
    def test_rejects_non_finite(self, pt):
        with pytest.raises(ValidationError, match="non-finite"):
            contains(self._curve(), pt)


class TestNestingQuick:
    def test_fig1_five_betas(self, fig1):
        betas = np.linspace(0, 1, 5)
        pure = sweep_region(fig1, "proper-pure", betas)
        hull = convex_hull_2d(pure.points())
        ts = sweep_region(fig1, "proper-timesharing", betas, eps=2e-2)
        for p in pure.points():
            assert contains(hull, p, tol=2e-2)
        for p in hull.points():
            assert contains(ts, p, tol=2e-2)


class TestExport:
    def test_csv_rows(self):
        curve = RegionCurve(
            method="proper-pure",
            samples=((0.25, RatePoint(1.234567890123456, 2.0)),),
        )
        rows = curve_to_csv_rows(curve)
        assert rows[0] == "method,beta,r1,r2"
        assert rows[1] == "proper-pure,0.25,1.23456789012,2"
