"""The library names that the benchmark's traced runs wrap still exist.

``perfbench/layers.py`` lists them in ``WRAPS``; a traced run prints
``null`` for every per-layer metric built on a name that is gone.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_wrapped_names_are_callables():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPS
    for module, attr, span, _ in layers.WRAPS:
        assert module.startswith("tinregion."), span
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr} is gone, so the traced run's {span} span is empty")
