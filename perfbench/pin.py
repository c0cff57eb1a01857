"""Write ``pinned.json``: the reference values the output checks compare to.

Usage, from the repository root::

    python3 perfbench/pin.py

For each channel of ``ts-sweep`` and ``pure-sweep`` and each beta, it stores
the balanced rate R that the library returns.  Rates are invariant under the
seeded rotations of the random channels, so seed 0 stands for every seed.
Rerun it only for a change that is meant to move these results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tinregion import region  # noqa: E402


def main() -> None:
    out = {"ts-sweep": {}, "pure-sweep": {}}
    for name, ch in workloads.build("ts-sweep", 0):
        curve = region.sweep_region(
            ch, "proper-timesharing", workloads.TS_BETAS, eps=workloads.TS_EPS
        )
        out["ts-sweep"][name] = [workloads._balanced(p, b) for b, p in curve.samples]
    for name, ch in workloads.build("pure-sweep", 0):
        with workloads.capture(region, "balance_pure_proper") as balances:
            region.sweep_region(
                ch, "proper-pure", workloads.PURE_BETAS, eps=workloads.PURE_EPS
            )
        out["pure-sweep"][name] = [res.R for res in balances]
    workloads.PINNED_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
