"""The library's run path loads no SciPy, which the tests use as an oracle,
and its import loads no ``numpy.polynomial``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    code = (
        "import sys, tinregion, tinregion.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run(code) == "[]"


def test_import_loads_no_numpy_polynomial():
    code = (
        "import sys, tinregion, tinregion.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']))"
    )
    assert _run(code) == "[]"


def test_timesharing_sweep_loads_no_scipy():
    code = (
        "import sys\n"
        "from tinregion import preset_scenario, sweep_region\n"
        "(b, p), = sweep_region(preset_scenario('fig3'), 'proper-timesharing',"
        " [0.5], eps=2e-2).samples\n"
        "print(any(m.startswith('scipy') for m in sys.modules), min(p.r1, p.r2))"
    )
    loaded, rate = _run(code).split()
    assert loaded == "False"
    # the balanced fig3 point of the ts-sweep pins, R = 7.1732 at beta 0.5
    assert abs(2.0 * float(rate) - 7.173235234450834) <= 2e-2
