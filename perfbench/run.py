"""Benchmark of the tinregion library: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload ts-sweep --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` beside this directory.  A run measures
the set-up (import plus building the inputs from the seed, repeated in fresh
interpreters), then repeats whole passes over the workload's inputs while
another pass is expected to end within ``--seconds`` (always at least one).
One process with one thread makes the calls, each after the previous one
returned; BLAS is capped at one thread.  Times in the metrics are corrected
for the machine's changing speed (see ``timing.py``); the raw ones are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase, then a traced one, and prints the per-layer metrics; the
spans go to ``perfbench/out/spans-<workload>.npz``.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from spans import Tracer
from timing import Clock, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ts-sweep", "pure-sweep", "improper-gp", "rate-eval")

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("peak_rss_mb", "MB"),
    ("wsr_mean", "bit/use"),
)

SETUP_REPEATS = 3
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from timing import SpeedSampler
with SpeedSampler() as sampler:
    import workloads
    workloads.build(sys.argv[3], int(sys.argv[4]))
t1 = time.perf_counter()
raw = t1 - t0 - sampler.spent
print(raw, raw / sampler.slowdown([t0], [t1])[0])
"""


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time to import tinregion and build the inputs, each time in a
    fresh interpreter: corrected for the machine's speed, and raw."""
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, fixed = done.stdout.split()[-2:]
        raw.append(float(took))
        corrected.append(float(fixed))
    return statistics.median(corrected), statistics.median(raw)


@dataclass
class Phase:
    """One timed phase: whole passes over the inputs."""

    passes: int
    tally: object
    busy: float  # corrected seconds inside timed calls
    raw_busy: float  # wall seconds inside timed calls, sampler included like in spans
    op_latency: np.ndarray  # corrected seconds per op

    @property
    def ops_per_s(self) -> float:
        return (self.tally.attempted - self.tally.failed) / self.busy


def timed_phase(workload: str, inputs, seconds: float, tracer=None) -> Phase:
    """Whole passes while another one is expected to end within ``seconds``."""
    import workloads  # needs tinregion on the path

    run_pass = workloads.PASSES[workload]
    tally = workloads.Tally()
    passes = 0
    with SpeedSampler() as sampler:
        clock = Clock(tracer, sampler)
        t0 = perf_counter()
        while True:
            run_pass(inputs, clock, tally)
            passes += 1
            if (perf_counter() - t0) * (passes + 1) / passes > seconds:
                break
    took, n_ops = clock.corrected()
    # a call that completes several ops (a sweep) gives each its share
    latency = np.repeat(took[n_ops > 0] / n_ops[n_ops > 0], n_ops[n_ops > 0])
    raw_busy = sum(t1 - t0 for t0, t1, _, _ in clock.calls)
    return Phase(passes, tally, float(took.sum()), raw_busy, latency)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def traced_phase(workload: str, inputs, seconds: float):
    """A timed phase with every name of ``layers.WRAPS`` traced."""
    tracer = Tracer()
    tracer.install(layers.WRAPS)
    try:
        phase = timed_phase(workload, inputs, seconds, tracer)
    finally:
        tracer.restore()
    return phase, tracer


def layer_metrics(phase: Phase, tracer, untraced_ops_per_s: float) -> dict:
    return layers.layer_metrics(
        tracer.table(), phase.passes, phase.raw_busy,
        phase.tally.starts, phase.tally.converged,
        phase.ops_per_s, untraced_ops_per_s, src_lines(),
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The untraced phase and, when tracing, the traced phase after it with
    its per-layer metrics."""
    import workloads

    inputs = workloads.build(workload, seed)
    plain = timed_phase(workload, inputs, seconds)
    out = {"plain": plain, "traced": None, "layers": None}
    if trace:
        traced, tracer = traced_phase(workload, inputs, seconds)
        tracer.write(OUT / f"spans-{workload}.npz")
        out["traced"] = traced
        out["layers"] = layer_metrics(traced, tracer, plain.ops_per_s)
    return out


def end_to_end(plain: Phase, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": plain.ops_per_s,
        "op_s_p50": float(np.percentile(plain.op_latency, 50)),
        "op_s_p90": float(np.percentile(plain.op_latency, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wsr_mean": statistics.fmean(plain.tally.wsr),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tinregion" / "__init__.py").is_file():
        print(f"error: no tinregion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(
        args.workload, args.seed
    )
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    phases = [p for p in (result["plain"], result["traced"]) if p is not None]
    attempted = sum(p.tally.attempted for p in phases)
    failed = sum(p.tally.failed for p in phases)
    for p in phases:
        for why in p.tally.first_errors:
            print(f"check failed: {why}", file=sys.stderr)

    plain = result["plain"]
    print(f"workload {args.workload}, seed {args.seed}: {plain.passes} pass(es), "
          f"{plain.tally.attempted} ops in {plain.raw_busy:.3f} s of calls "
          f"({plain.busy:.3f} s corrected to the reference speed)")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace:
        units = {name: unit for name, unit, _ in layers.METRICS}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["layers"].items()
        }
    else:
        units = dict(END_TO_END)
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in end_to_end(plain, setup_s).items()
        }
        print(f"raw: setup_s = {raw_setup_s} s, ops_per_s = "
              f"{(plain.tally.attempted - plain.tally.failed) / plain.raw_busy} ops/s")
        print(f"src_lines = {src_lines()} lines")
    for name, m in metrics.items():
        note = f" (n={len(plain.op_latency)})" if name.startswith("op_s_") else ""
        print(f"{name} = {m['value']} {m['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
