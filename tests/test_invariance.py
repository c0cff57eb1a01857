"""Invariance relations, each checked on every solver within its tolerance.

* Units: a rate depends on a power only through ``p_k |h|^2``, so scaling
  transmitter k's links by ``s_k`` and its budget by ``1 / s_k^2`` leaves
  every rate, and so every region, unchanged.
* Rotations: a unitary at a receiver, or a phase at a transmitter, changes
  no inner product the rates depend on.
* Swap: exchanging the users exchanges their rates, and beta with
  ``1 - beta``.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from tinregion import RateProfile, cutting_plane, multistart, preset_scenario, sweep_region

from conftest import random_channel

EPS = 2e-2
BETAS = np.linspace(0.0, 1.0, 5)
# s_k^2: one transmitter at a time, then both
SQUARES = (1e-12, 1e-6, 1e6, 1e12)
UNITS = [(s, 1.0) for s in SQUARES] + [(1.0, s) for s in SQUARES] + [(s, s) for s in SQUARES]


def _rescaled(ch, sq1, sq2):
    """``ch`` with transmitter k's links times ``s_k`` and budget over ``s_k^2``."""
    s1, s2 = np.sqrt(sq1), np.sqrt(sq2)
    return replace(ch, h11=ch.h11 * s1, h21=ch.h21 * s1, h12=ch.h12 * s2, h22=ch.h22 * s2,
                   p1=ch.p1 / sq1, p2=ch.p2 / sq2)


def _channels():
    """fig1-3, then random channels with 1-4 antennas per receiver and
    budgets from 0.1 to 100; of those, two lose a cross link and one a
    direct link."""
    out = {name: preset_scenario(name) for name in ("fig1", "fig2", "fig3")}
    rng = np.random.default_rng(17)
    dead = [None, "h12", "h21", None, "h11", None, "h12", None]
    for i, link in enumerate(dead):
        ch = random_channel(rng, *rng.integers(1, 5, 2), p=10 ** rng.uniform(-1, 2))
        if link:
            ch = replace(ch, **{link: 0 * getattr(ch, link)})
        out[f"random{i}-{link or 'full'}"] = ch
    return out


CHANNELS = _channels()


def _scaling(rates, profile):
    return min(r / w for r, w in zip(rates, (profile.rho1, profile.rho2)) if w > 0)


def _timesharing(ch, betas=BETAS):
    """``(upper, rates)`` at each beta of a time-sharing sweep with one cut
    pool, as ``sweep_region`` runs it: the dual upper bound and the
    recovered mixture's rates."""
    out, pool = [], None
    for beta in betas:
        profile = RateProfile.from_beta(beta)
        res = cutting_plane(ch, profile, eps=EPS, seed_cuts=pool)
        pool = res.cuts
        out.append((res.upper, res.solution.rates))
    return out


def _check_certificates(ch, betas, points):
    """Each recovery is within ``EPS`` below its dual upper bound, and not
    more than ``EPS`` below the pure optimum at its profile."""
    pure = sweep_region(ch, "proper-pure", betas).points()
    for beta, (upper, rates), best_pure in zip(betas, points, pure):
        profile = RateProfile.from_beta(beta)
        R = _scaling(rates, profile)
        assert upper - EPS <= R <= upper, (beta, upper, R)
        assert R >= _scaling(best_pure, profile) - EPS, (beta, R)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_units_of_power(name):
    ch = CHANNELS[name]
    ts = _timesharing(ch)
    pure = sweep_region(ch, "proper-pure", BETAS).points()
    hull = sweep_region(ch, "convex-hull", BETAS).points()
    for sq in UNITS:
        other = _rescaled(ch, *sq)
        got = _timesharing(other)
        _check_certificates(other, BETAS, got)
        for (_, want), (_, rates) in zip(ts, got):
            assert np.abs(np.subtract(rates, want)).max() <= EPS, (sq, want, rates)
        for method, want in (("proper-pure", pure), ("convex-hull", hull)):
            moved = sweep_region(other, method, BETAS).points()
            assert len(moved) == len(want)
            assert np.abs(np.subtract(moved, want)).max() <= 1e-9, (sq, method)


@pytest.mark.parametrize("power", [1e15, 1e20])
def test_large_budgets(power):
    # fig1 at SNRs of 150 and 200 dB: a multiplier floor in absolute units
    # once stopped these sweeps short of the budget, or not at all
    ch = replace(preset_scenario("fig1"), p1=power, p2=power)
    betas = np.linspace(0.0, 1.0, 21)
    _check_certificates(ch, betas, _timesharing(ch, betas))


def _more_channels():
    """Four more random channels with every link, for the relations below."""
    rng = np.random.default_rng(18)
    return {f"random{8 + i}-full": random_channel(rng, *rng.integers(1, 5, 2),
                                                  p=10 ** rng.uniform(-1, 2))
            for i in range(4)}


SYMMETRY_CHANNELS = {**CHANNELS, **_more_channels()}


def _unitary(rng, n):
    """A random ``n x n`` unitary (Haar, from a phase-fixed QR)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(ch, rng):
    """``ch`` with a random unitary at each receiver and a random phase at
    each transmitter."""
    u1, u2 = _unitary(rng, len(ch.h11)), _unitary(rng, len(ch.h22))
    f1, f2 = np.exp(2j * np.pi * rng.uniform(size=2))
    return replace(ch, h11=f1 * u1 @ ch.h11, h12=f2 * u1 @ ch.h12,
                   h21=f1 * u2 @ ch.h21, h22=f2 * u2 @ ch.h22)


def _swapped(ch):
    """``ch`` with the users' roles exchanged."""
    return replace(ch, h11=ch.h22, h12=ch.h21, h21=ch.h12, h22=ch.h11, p1=ch.p2, p2=ch.p1)


def _swap_back(x):
    """Results of the swapped channel, one row per beta ascending (or per
    hull vertex), in the original's order, with the users' rates exchanged."""
    x = np.asarray(x)[::-1]
    return x[:, ::-1] if x.ndim == 2 else x


def _regions(ch):
    """Each method's output at ``BETAS``: pure and hull points, the
    time-sharing sweep's ``(upper, rates)``, and the best improper ``W``."""
    return {
        "proper-pure": np.array(sweep_region(ch, "proper-pure", BETAS).points()),
        "convex-hull": np.array(sweep_region(ch, "convex-hull", BETAS).points()),
        "proper-timesharing": _timesharing(ch),
        "W": np.array([multistart(ch, (b, 1 - b))[0].W for b in BETAS]),
    }


@functools.cache
def _original(name):
    return _regions(SYMMETRY_CHANNELS[name])


@pytest.mark.parametrize("relation", ["rotation", "swap"])
@pytest.mark.parametrize("name", sorted(SYMMETRY_CHANNELS))
def test_rotations_and_user_swap(name, relation):
    ch = SYMMETRY_CHANNELS[name]
    if relation == "rotation":
        rng = np.random.default_rng([29, sorted(SYMMETRY_CHANNELS).index(name)])
        other, back = _rotated(ch, rng), np.asarray
    else:
        other, back = _swapped(ch), _swap_back
    want, got = _original(name), _regions(other)
    _check_certificates(other, BETAS, got["proper-timesharing"])
    ts = [rates for _, rates in got["proper-timesharing"]]
    want_ts = [rates for _, rates in want["proper-timesharing"]]
    assert np.abs(back(ts) - want_ts).max() <= EPS
    for method in ("proper-pure", "convex-hull"):
        assert back(got[method]).shape == want[method].shape, method
        assert np.abs(back(got[method]) - want[method]).max() <= 1e-9, method
    assert np.all(np.abs(back(got["W"]) - want["W"]) <= 1e-6 * want["W"])
