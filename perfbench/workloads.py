"""The four benchmark workloads: inputs from a seed, one pass of timed
public calls, and the output checks.

A workload's pass runs every op of its input set once.  Each public call is
timed by a ``timing.Clock``; output checks run between calls, outside the
timed intervals.  Why each workload exists is in ``README.md`` beside this
file.

Seeded randomness keeps the work of a pass fixed:

* The "random" channels are fixed Gaussian draws (pinned generator keys
  below) put through seeded random unitary rotations at both receivers and
  seeded phases at both transmitters.  Rates are invariant under these, so
  the solvers take the same path and the pinned reference values hold, yet
  every seed feeds different numbers.  Fresh Gaussian draws per seed changed
  the cost of one pure sweep by up to 9x at P=100.
* The improper strategies of ``rate-eval`` are fresh per seed; their cost
  does not depend on their values.
* The GP start seeds of ``improper-gp`` are fixed per op.  Seeding them
  from the workload seed moved the pass time by 8% and the median op
  latency by 14% (quartile distance over ten seeds), more than the bound
  the benchmark can afford.
"""

from __future__ import annotations

import functools
import json
import math
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tinregion
from timing import Clock
from tinregion import channel, improper_gp, rates, region

PINNED_PATH = Path(__file__).with_name("pinned.json")

TS_BETAS = tuple(float(b) for b in np.linspace(0.0, 1.0, 5))
TS_EPS = 2e-2
TS_PRESETS = ("fig1", "fig3")

PURE_BETAS = tuple(float(b) for b in np.linspace(0.0, 1.0, 11))
PURE_EPS = 1e-6
PURE_PRESETS = ("fig1", "fig2")

GP_PRESETS = ("fig1", "fig3")
GP_BETAS = (0.05, 0.5, 0.95)
GP_STARTS = 20

RATE_PRESETS = ("fig1", "fig2")
RATE_STRATEGIES = 500  # per channel and pass

# (receive antennas, power budget of both users): the base draws of the
# random channels.  The 1-antenna pair shows the cost of SNR alone: its pure
# sweep takes about 15x longer at P=100.  The 4-antenna draw at P=100 took
# 11.5 s alone, too much of the time a run can have.
RANDOM_BASES = ((1, 1), (1, 100), (2, 10), (3, 10), (4, 1))

# Tolerances of the output checks.
FORMULA_TOL = 1e-10  # rate formulas agree, and the enhanced bound dominates
POWER_TOL = 1e-9  # relative slack on a power budget


@dataclass
class Tally:
    """Ops attempted and failed in a timed phase, with per-op quality."""

    attempted: int = 0
    failed: int = 0
    wsr: list[float] = field(default_factory=list)
    starts: int = 0
    converged: int = 0
    first_errors: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.first_errors) < 5:
            self.first_errors.append(why)


@contextmanager
def capture(module, attr):
    """Collect the results of calls made through ``module.attr``."""
    fn = getattr(module, attr)
    results = []

    def keep(*args, **kwargs):
        out = fn(*args, **kwargs)
        results.append(out)
        return out

    setattr(module, attr, keep)
    try:
        yield results
    finally:
        setattr(module, attr, fn)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


@functools.cache
def pinned() -> dict:
    """Balanced rates R per preset or base channel and beta, as this
    benchmark's first version computed them (see ``pin.py``)."""
    return json.loads(PINNED_PATH.read_text())


# ---------------------------------------------------------------- inputs


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_channels(seed: int) -> list[tuple[str, tinregion.SimoChannel]]:
    """Seeded rotations of the fixed base draws (see module docstring)."""
    out = []
    for i, (n, p) in enumerate(RANDOM_BASES):
        base = np.random.default_rng([n, p, 0])
        h = [
            (base.standard_normal(n) + 1j * base.standard_normal(n)) / math.sqrt(2)
            for _ in range(4)
        ]
        rng = np.random.default_rng([seed, i])
        u1, u2 = _haar_unitary(rng, n), _haar_unitary(rng, n)
        t1, t2 = np.exp(2j * np.pi * rng.uniform(size=2))
        ch = tinregion.SimoChannel(
            h11=u1 @ h[0] * t1, h12=u1 @ h[1] * t2,
            h21=u2 @ h[2] * t1, h22=u2 @ h[3] * t2,
            p1=float(p), p2=float(p),
        )
        out.append((f"rand-{n}x{p}", tinregion.validate_channel(ch)))
    return out


def presets(names) -> list[tuple[str, tinregion.SimoChannel]]:
    return [(name, tinregion.preset_scenario(name)) for name in names]


def random_strategies(rng: np.random.Generator, ch, count: int):
    """Improper strategies within the budgets, with their composite real
    covariances."""
    out = []
    for _ in range(count):
        c = rng.uniform(0.0, 1.0, 2) * (ch.p1, ch.p2)
        ct = c * rng.uniform(0.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        x = tinregion.TxStrategy(float(c[0]), float(c[1]), complex(ct[0]), complex(ct[1]))
        m1 = tinregion.composite_cov_from_strategy(x.c1, x.ct1)
        m2 = tinregion.composite_cov_from_strategy(x.c2, x.ct2)
        out.append((x, m1, m2))
    return out


def build(workload: str, seed: int):
    """The workload's inputs; the same seed gives the same inputs."""
    if workload == "ts-sweep":
        return presets(TS_PRESETS)
    if workload == "pure-sweep":
        return presets(PURE_PRESETS) + random_channels(seed)
    if workload == "improper-gp":
        return presets(GP_PRESETS)
    if workload == "rate-eval":
        rng = np.random.default_rng([seed, len(RANDOM_BASES)])
        return [
            (name, ch, random_strategies(rng, ch, RATE_STRATEGIES))
            for name, ch in presets(RATE_PRESETS) + random_channels(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- passes


def _balanced(point, beta: float) -> float:
    """The common scaling R of a boundary point on profile (beta, 1-beta)."""
    return min(r / rho for r, rho in zip(point, (beta, 1.0 - beta)) if rho > 0)


def _single_user_rate(ch, k: int) -> float:
    h = ch.h11 if k == 1 else ch.h22
    return math.log2(1.0 + ch.power(k) * float(np.linalg.norm(h) ** 2))


def ts_pass(channels, clock: Clock, tally: Tally) -> None:
    for name, ch in channels:
        n = len(TS_BETAS)
        tally.attempted += n
        try:
            curve = clock.call(
                n, region.sweep_region, ch, "proper-timesharing", TS_BETAS, eps=TS_EPS
            )
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            tally.fail(n, f"{name}: {_error(exc)}")
            continue
        ref = pinned()["ts-sweep"][name]
        for i, (beta, point) in enumerate(curve.samples):
            why = None
            if len(curve.samples) != n or beta != TS_BETAS[i]:
                why = "unexpected beta grid"
            elif not all(math.isfinite(r) and r >= 0.0 for r in point):
                why = f"bad rates {point}"
            elif abs(_balanced(point, beta) - ref[i]) > TS_EPS:
                why = f"R={_balanced(point, beta)!r} vs pinned {ref[i]!r}"
            elif beta == 1.0 and abs(point.r1 - _single_user_rate(ch, 1)) > TS_EPS:
                why = f"corner r1={point.r1!r}"
            elif beta == 0.0 and abs(point.r2 - _single_user_rate(ch, 2)) > TS_EPS:
                why = f"corner r2={point.r2!r}"
            if why:
                tally.fail(1, f"{name} beta={beta}: {why}")
            tally.wsr.append(beta * point.r1 + (1.0 - beta) * point.r2)


def _check_pure(name, ch, curve, balances, hull):
    """Failure messages, one slot per point (None when the point passes)."""
    ref = pinned()["pure-sweep"][name]
    out = []
    if len(balances) != len(PURE_BETAS) or len(curve.samples) != len(PURE_BETAS):
        return [f"{name}: {len(balances)} balance results"] * len(PURE_BETAS)
    for i, ((beta, point), res) in enumerate(zip(curve.samples, balances)):
        why = None
        rho = (beta, 1.0 - beta)
        achieved = tinregion.rate_proper(ch, res.p1, res.p2)
        if tuple(point) != tuple(res.rates):
            why = "sweep point differs from its balance result"
        elif not (0.0 <= res.p1 <= ch.p1 * (1 + POWER_TOL)
                  and 0.0 <= res.p2 <= ch.p2 * (1 + POWER_TOL)):
            why = f"powers ({res.p1!r}, {res.p2!r}) outside the budget"
        elif any(r < rh * res.R - PURE_EPS for r, rh in zip(point, rho)):
            why = f"rates {tuple(point)} below rho*R with R={res.R!r}"
        elif max(abs(a - b) for a, b in zip(achieved, point)) > FORMULA_TOL:
            why = "reported rates are not those of the reported powers"
        elif abs(res.R - ref[i]) > PURE_EPS:
            why = f"R={res.R!r} vs pinned {ref[i]!r}"
        elif not region.contains(hull, point, tol=FORMULA_TOL):
            why = "point outside its hull"
        out.append(None if why is None else f"{name} beta={beta}: {why}")
    return out


def pure_pass(channels, clock: Clock, tally: Tally) -> None:
    for name, ch in channels:
        n = len(PURE_BETAS)
        tally.attempted += n
        try:
            with capture(region, "balance_pure_proper") as balances:
                curve = clock.call(
                    n, region.sweep_region, ch, "proper-pure", PURE_BETAS, eps=PURE_EPS
                )
            hull = clock.call(0, region.convex_hull_2d, curve.points())
        except Exception as exc:  # noqa: BLE001
            tally.fail(n, f"{name}: {_error(exc)}")
            continue
        for why in _check_pure(name, ch, curve, balances, hull):
            if why:
                tally.fail(1, why)
        for beta, point in curve.samples:
            tally.wsr.append(beta * point.r1 + (1.0 - beta) * point.r2)


def _check_gp(ch, tc, w, best, results):
    if best.W != max(r.W for r in results):
        return "best is not the best start"
    for r in results:
        for m, p in ((r.m1, ch.p1), (r.m2, ch.p2)):
            scale = max(1.0, float(np.abs(m).max()))
            if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > FORMULA_TOL * scale:
                return "covariance not symmetric"
            if np.linalg.eigvalsh(m)[0] < -FORMULA_TOL * scale:
                return "covariance not PSD"
            if np.trace(m) > p * (1 + POWER_TOL):
                return f"trace {np.trace(m)!r} above budget {p}"
        again = rates.rate_composite(ch, r.m1, r.m2)
        if max(abs(a - b) for a, b in zip(again, r.rates)) > FORMULA_TOL:
            return f"rates {tuple(r.rates)} differ from rate_composite {tuple(again)}"
        if abs(w[0] * r.rates.r1 + w[1] * r.rates.r2 - r.W) > FORMULA_TOL:
            return "W is not the weighted sum of the rates"
        c1, ct1 = tinregion.strategy_from_composite_cov(r.m1)
        c2, ct2 = tinregion.strategy_from_composite_cov(r.m2)
        bound = rates.enhanced_upper_bound(tc, tinregion.TxStrategy(c1, c2, ct1, ct2))
        if any(a > b + FORMULA_TOL for a, b in zip(r.rates, bound)):
            return f"rates {tuple(r.rates)} exceed the enhanced bound {tuple(bound)}"
    return None


def gp_pass(channels, clock: Clock, tally: Tally) -> None:
    for i, (name, ch) in enumerate(channels):
        tc = channel.transform_channel(ch)
        for j, beta in enumerate(GP_BETAS):
            w = (beta, 1.0 - beta)
            tally.attempted += 1
            try:
                best, results = clock.call(
                    1, improper_gp.multistart, ch, w,
                    n_starts=GP_STARTS, seed=1000 * i + j,
                )
            except Exception as exc:  # noqa: BLE001
                tally.fail(1, f"{name} beta={beta}: {_error(exc)}")
                continue
            why = _check_gp(ch, tc, w, best, results)
            if why:
                tally.fail(1, f"{name} beta={beta}: {why}")
            tally.wsr.append(best.W)
            tally.starts += len(results)
            tally.converged += sum(r.converged for r in results)


def _four_formulas(ch, tc, x, m1, m2):
    return (
        rates.rate_complex(ch, x),
        rates.rate_composite(ch, m1, m2),
        rates.transformed_rates(tc, x),
        rates.enhanced_upper_bound(tc, x),
    )


def rate_pass(inputs, clock: Clock, tally: Tally) -> None:
    for name, ch, strategies in inputs:
        try:
            tc = clock.call(0, channel.transform_channel, ch)
        except Exception as exc:  # noqa: BLE001
            tally.attempted += len(strategies)
            tally.fail(len(strategies), f"{name}: {_error(exc)}")
            continue
        for x, m1, m2 in strategies:
            tally.attempted += 1
            try:
                rc, rr, rt, bound = clock.call(1, _four_formulas, ch, tc, x, m1, m2)
            except Exception as exc:  # noqa: BLE001
                tally.fail(1, f"{name}: {_error(exc)}")
                continue
            gap = max(abs(a - b) for a, b in zip(rc + rc, rr + rt))
            excess = max(a - b for a, b in zip(rc + rr + rt, bound * 3))
            if gap > FORMULA_TOL or excess > FORMULA_TOL:
                tally.fail(1, f"{name} {x}: disagreement {gap:.3g}, excess {excess:.3g}")
            tally.wsr.append(0.5 * (rc.r1 + rc.r2))


PASSES = {
    "ts-sweep": ts_pass,
    "pure-sweep": pure_pass,
    "improper-gp": gp_pass,
    "rate-eval": rate_pass,
}
