"""The benchmark tracer's contract with the package.

``perfbench/layers.py`` replaces package names by wrappers during a traced
benchmark run; a refactor that drops one of those names breaks that run.
This check keeps such a refactor from passing the unit tests.
"""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr in layers.patched_names()
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
