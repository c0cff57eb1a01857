"""Command-line interface.

Subcommands:

* ``region``     — sweep one or more methods over a beta grid, export CSV/JSON.
* ``reproduce``  — run all methods on a bundled scenario and compare against
  the published reference values.

Exit codes: 0 success, 1 tolerance/check failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import reference_points
from .channel import SimoChannel, load_scenario, validate_channel
from .errors import TinRegionError, ValidationError
from .improper_gp import multistart
from .proper_pure import RateProfile, balance_pure_proper
from .region import (
    METHODS,
    PRESETS,
    convex_hull_2d,
    preset_scenario,
    sweep_region,
    write_curve,
)

_METHOD_ALIASES = {
    "proper-pure": "proper-pure",
    "proper-ts": "proper-timesharing",
    "proper-timesharing": "proper-timesharing",
    "improper": "improper-heuristic",
    "improper-heuristic": "improper-heuristic",
    "hull": "convex-hull",
    "convex-hull": "convex-hull",
}


def _resolve_scenario(name: str, seed: int) -> SimoChannel:
    if name in PRESETS:
        return preset_scenario(name)
    if name == "random":
        rng = np.random.default_rng(seed)
        draw = lambda: rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return validate_channel(
            SimoChannel(h11=draw(), h12=draw(), h21=draw(), h22=draw(),
                        p1=10.0, p2=10.0)
        )
    path = Path(name)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {name} is not valid JSON: {exc}") from exc
    return load_scenario(data)


def _parse_betas(text: str) -> list[float]:
    """Either a plain integer N (N uniform samples of [0, 1]) or a comma list."""
    try:
        if text.strip().isdecimal():
            n = int(text)
            if n < 1:
                raise ValueError("need at least one sample")
            return list(np.linspace(0.0, 1.0, n)) if n > 1 else [0.5]
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
        if not vals:
            raise ValueError("empty grid")
        return vals
    except ValueError as exc:
        raise ValidationError(f"bad beta grid {text!r}: {exc}") from exc


def cmd_region(args) -> int:
    ch = _resolve_scenario(args.scenario, args.seed)
    betas = _parse_betas(args.betas)
    methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    if not methods:
        raise ValidationError(f"no method in {args.method!r}")
    curves = []
    t0 = time.perf_counter()
    for raw in methods:
        try:
            method = _METHOD_ALIASES[raw]
        except KeyError:
            raise ValidationError(
                f"unknown method {raw!r}; choose from {sorted(_METHOD_ALIASES)}"
            ) from None
        curves.append(
            sweep_region(
                ch, method, betas, eps=args.eps, seed=args.seed,
                n_starts=args.starts,
            )
        )
    elapsed = time.perf_counter() - t0

    out = Path(args.out) if args.out else None
    if out is not None:
        write_curve(out, *curves, fmt=args.format)

    for c in curves:
        first = c.samples[0][1]
        last = c.samples[-1][1]
        mid = c.samples[len(c.samples) // 2][1]
        print(
            f"{c.method}: {len(c.samples)} samples, "
            f"ends ({first.r1:.4f}, {first.r2:.4f}) .. ({last.r1:.4f}, {last.r2:.4f}), "
            f"middle ({mid.r1:.4f}, {mid.r2:.4f})"
        )
    print(f"runtime: {elapsed:.2f} s" + (f", wrote {out}" if out else ""))
    return 0


def cmd_reproduce(args) -> int:
    name = args.figure
    if args.betas < 3 or args.betas % 2 == 0:
        # the balanced time-sharing check reads the curve at beta 0.5
        raise ValidationError(f"--betas must be odd and at least 3, got {args.betas}")
    if args.starts < 1:
        raise ValidationError(f"--starts must be at least 1, got {args.starts}")
    ch = preset_scenario(name)
    outdir = Path(args.out) if args.out else Path(f"reproduce_{name}")
    outdir.mkdir(parents=True, exist_ok=True)
    grid = list(np.linspace(0.0, 1.0, args.betas))

    curves = {}
    for method in METHODS:
        eps = 2e-2 if method == "proper-timesharing" else 1e-6
        if method == "convex-hull":  # the hull of the pure sweep above
            curves[method] = convex_hull_2d(curves["proper-pure"].points())
        else:
            curves[method] = sweep_region(
                ch, method, grid, eps=eps, seed=args.seed, n_starts=args.starts
            )
        write_curve(outdir / f"{method}.csv", curves[method], fmt="csv")

    best, runs = multistart(ch, (1.0, 1.0), n_starts=args.starts, seed=args.seed)

    pure = curves["proper-pure"].points()
    candidates = {
        "corner-r1": [(max(p.r1 for p in pure),)],
        "corner-r2": [(max(p.r2 for p in pure),)],
        "pure-balanced": [balance_pure_proper(ch, RateProfile(0.5, 0.5), eps=1e-8).rates],
        "ts-balanced": [p for b, p in curves["proper-timesharing"].samples if abs(b - 0.5) < 1e-9],
        "improper-min-sum": [best.rates],
        "improper-point": [r.rates for r in runs],
    }
    failures = 0
    lines = []
    for chk in reference_points.REFERENCE_CHECKS:
        if chk.scenario != name:
            continue
        dev = chk.deviation(candidates[chk.kind])
        ok = dev <= chk.tol
        failures += 0 if ok else 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  {chk.name}: deviation {dev:.4g} "
            f"(allowed {chk.tol:.4g})"
        )

    report = "\n".join(lines)
    (outdir / "report.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    print(f"wrote curves and report to {outdir}/")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinregion",
        description="TIN rate regions of the two-user SIMO interference channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="sweep a rate region")
    p_region.add_argument("--scenario", required=True,
                          help="preset name, JSON file, or 'random'")
    p_region.add_argument("--method", default="proper-pure",
                          help="comma-separated: proper-pure, proper-ts, improper, hull")
    p_region.add_argument("--betas", default="21", help="N or comma list")
    p_region.add_argument("--eps", type=float, default=None)
    p_region.add_argument("--seed", type=int, default=0)
    p_region.add_argument("--starts", type=int, default=20)
    p_region.add_argument("--out", default=None)
    p_region.add_argument("--format", choices=("csv", "json"), default="csv")
    p_region.set_defaults(func=cmd_region)

    p_rep = sub.add_parser("reproduce", help="reproduce a bundled scenario")
    p_rep.add_argument("figure", choices=sorted(PRESETS))
    p_rep.add_argument("--betas", type=int, default=21)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--starts", type=int, default=20)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TinRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
