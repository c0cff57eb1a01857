"""The package's public surface is the README's "Public API" section, and
``tinregion/__init__.py`` is the one module that declares one."""

import importlib
import re
from pathlib import Path

import tinregion

ROOT = Path(__file__).resolve().parents[1]


def _api_section() -> list[str]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Public API") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("## "))
    return lines[start:end]


def _resolve(dotted: str):
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_all_is_the_readme_list():
    groups = " ".join(line for line in _api_section() if line.startswith(("* **", "  ")))
    listed = re.findall(r"`(\w+)`", groups)
    assert listed == tinregion.__all__
    assert len(listed) == 30
    for name in listed:
        assert getattr(tinregion, name) is not None, name
    assert tinregion.__version__


def test_named_internals_resolve():
    dotted = re.findall(r"`(tinregion\.[\w.]+)`", " ".join(_api_section()))
    assert "tinregion.proper_pure.gamma_of_R" in dotted
    assert "tinregion.channel.load_scenario" in dotted
    for name in dotted:
        assert _resolve(name) is not None, name


def test_no_module_declares_its_own_surface():
    for path in sorted((ROOT / "src" / "tinregion").glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"tinregion.{path.stem}")
            assert not hasattr(module, "__all__"), path.name
