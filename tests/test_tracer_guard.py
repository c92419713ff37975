"""The benchmark's traced run patches blocktool names; each of them must still exist.

perfbench/tracer.py looks every traced function and method up with getattr
and no default, so a refactor that deletes or renames one would crash
`perfbench/run.py --trace 1`. These tests catch that in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    missing = [f"{mod}.{name}" for mod, names in tracer.FUNCTIONS.items() for name in names
               if not callable(getattr(importlib.import_module(f"blocktool.{mod}"), name, None))]
    assert missing == []


def test_traced_methods_resolve(tracer):
    missing = []
    for mod, cls, attr, _span in tracer.METHODS:
        owner = importlib.import_module(f"blocktool.{mod}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []


def test_tracer_installs_and_uninstalls(tracer):
    for mod in tracer.LAYERS:
        importlib.import_module(f"blocktool.{mod}")
    from blocktool import permcore

    mul = permcore.Permutation.__mul__
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert permcore.Permutation.__mul__ is mul
