"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
counter test runs one traced pass of every workload twice (about three
minutes on two cores).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from tinregion import improper_gp, rates, region  # noqa: E402
from tinregion.improper_gp import GpResult  # noqa: E402
from tinregion.rates import RatePoint  # noqa: E402

EXACT = (
    "timesharing.cuts",
    "timesharing.master_lp_calls",
    "proper_pure.gamma_calls",
    "proper_pure.eig_calls",
    "improper_gp.projections",
    "improper_gp.converged_ratio",
)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.METRICS
    )
    assert {name for name, *_ in layers.METRICS} == set(
        layers.layer_metrics(
            spans.SpanTable(spans.Tracer()), 1, 1.0, 0, 0, 1.0, 1.0, 0
        )
    )


def test_self_time_and_missing_names(monkeypatch):
    stub = types.ModuleType("stub_layer")
    stub.inner = lambda: 1
    stub.outer = lambda: stub.inner() + 1
    monkeypatch.setitem(sys.modules, "stub_layer", stub)
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(ticks)))

    tracer = spans.Tracer()
    tracer.install([
        ("stub_layer", "outer", "outer", None),
        ("stub_layer", "inner", "inner", lambda r: r * 10),
        ("stub_layer", "removed_by_a_refactor", "gone", None),
        ("no_such_module", "f", "gone_too", None),
    ])
    tracer.active = True
    assert stub.outer() == 2
    tracer.restore()
    assert stub.outer.__name__ == "<lambda>"

    table = tracer.table()
    assert table.total("outer") == 3.0  # ticks 0 .. 3
    assert table.total("inner", parent="outer") == 1.0
    assert table.self_total("outer") == 2.0
    assert table.last_value_per_op("inner") == [10.0]
    assert table.missing == {"gone", "gone_too"}
    assert table.count("gone") is None
    assert table.total("inner", parent="gone") is None


def test_missing_layer_gives_null_and_the_run_goes_on(monkeypatch):
    # A refactor that rewrites proper_pure: none of its wrapped names exist.
    monkeypatch.setitem(sys.modules, "tinregion.proper_pure", types.ModuleType("stub"))
    inputs = workloads.build("rate-eval", 1)
    phase, tracer = run.traced_phase("rate-eval", inputs, 0)
    got = run.layer_metrics(phase, tracer, phase.ops_per_s)
    assert phase.tally.failed == 0
    for name in ("proper_pure.gamma_calls", "proper_pure.eig_calls",
                 "proper_pure.eig_s_per_call", "rates.mmse_filter_s",
                 "rates.rate_proper_calls"):
        assert got[name] is None, name
    assert got["rates.rate_complex_s"] > 0
    assert got["timesharing.master_lp_calls"] == 0


def _fake_gp(bad_trace):
    def multistart(ch, w, n_starts, seed):
        m = np.diag([ch.p1 * (2.0 if bad_trace else 0.5), 0.0])
        r = rates.rate_composite(ch, m, m)
        res = GpResult(m, m, w[0] * r.r1 + w[1] * r.r2, r, True)
        return res, [res]
    return multistart


def test_checks_catch_wrong_outputs(monkeypatch):
    ts_inputs = workloads.build("ts-sweep", 1)[:1]
    good = workloads.pinned()["ts-sweep"]["fig1"]

    def fake_sweep(ch, method, betas, eps):
        pts = [RatePoint(b * (r + 3 * eps), (1 - b) * (r + 3 * eps))
               for b, r in zip(betas, good)]
        return region.RegionCurve(method, tuple(zip(betas, pts)))

    monkeypatch.setattr(region, "sweep_region", fake_sweep)
    tally = workloads.Tally()
    workloads.ts_pass(ts_inputs, timing.Clock(), tally)
    assert tally.failed == tally.attempted == 5

    gp_inputs = workloads.build("improper-gp", 1)[:1]
    for bad, failed in ((False, 0), (True, 3)):
        monkeypatch.setattr(improper_gp, "multistart", _fake_gp(bad))
        tally = workloads.Tally()
        workloads.gp_pass(gp_inputs, timing.Clock(), tally)
        assert (tally.attempted, tally.failed) == (3, failed)

    composite = rates.rate_composite
    monkeypatch.setattr(
        rates, "rate_composite",
        lambda ch, m1, m2: RatePoint(*(r + 1e-9 for r in composite(ch, m1, m2))),
    )
    rate_inputs = workloads.build("rate-eval", 1)[:1]
    tally = workloads.Tally()
    workloads.rate_pass(rate_inputs, timing.Clock(), tally)
    assert tally.failed == tally.attempted > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counters_repeat(workload):
    inputs = workloads.build(workload, 5)
    seen = []
    for _ in range(2):
        phase, tracer = run.traced_phase(workload, inputs, 0)
        assert phase.tally.failed == 0, phase.tally.first_errors
        got = run.layer_metrics(phase, tracer, phase.ops_per_s)
        seen.append([got[name] for name in EXACT] + [math.fsum(phase.tally.wsr)])
    assert None not in seen[0]
    assert seen[0] == seen[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rate-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
