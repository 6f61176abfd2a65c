"""The benchmark harness in ``benchmarks/`` reaches into droopkit by name.

Its traced runs wrap the module globals listed in ``tracing.LAYER_FUNCTIONS``
with ``getattr``, and its workloads import the package's entry points.  A
rename or removal in ``src/`` would make ``benchmarks/run.py --trace 1`` or
the whole harness fail; these checks catch that in the unit tests.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def harness_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))


def test_every_traced_layer_function_resolves(harness_path):
    layer_functions = importlib.import_module("tracing").LAYER_FUNCTIONS
    missing = [
        f"droopkit.{module_name}.{attr}"
        for module_name, functions in layer_functions.items()
        for attr in functions
        if not callable(getattr(importlib.import_module(f"droopkit.{module_name}"), attr, None))
    ]
    assert not missing


@pytest.mark.parametrize("name", ["workloads", "layers"])
def test_benchmark_modules_import(harness_path, name):
    importlib.import_module(name)
