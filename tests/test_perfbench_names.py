"""The library names that the benchmark's traced runs wrap still exist,
and still return what the traced runs read from them.

``perfbench/layers.py`` lists them in ``WRAPS``; a traced run prints
``null`` for every per-layer metric built on a name that is gone.
"""

import importlib
import importlib.util
from pathlib import Path

from tinregion import RateProfile, cutting_plane

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_wrapped_names_are_callables():
    layers = _layers()
    assert layers.WRAPS
    for module, attr, span, _ in layers.WRAPS:
        assert module.startswith("tinregion."), span
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr} is gone, so the traced run's {span} span is empty")


def test_cut_count_reads_cutting_plane(fig3):
    # the traced run counts cuts by unpacking cutting_plane's
    # (upper, dv, cuts); a change to that return fails here
    count = _layers()._cut_count(cutting_plane(fig3, RateProfile(0.5, 0.5), eps=2e-2))
    assert isinstance(count, int) and count > 0
