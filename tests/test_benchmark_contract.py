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


@pytest.mark.parametrize("policy", ["equal", "adaptive"])
def test_every_reduction_is_counted_through_market_plan_hour(monkeypatch, policy):
    """``run.py --trace 1`` sums ``market.reduction_iterations`` over the spans
    of ``market.plan_hour`` and checks the sum against ``reference.json``, and
    counts ``market.clear_calls`` on ``market.clear_market``.  ``plan`` may give
    an hour that needs no reduction its record directly, but every hour that
    needs one must come through the module global."""
    from droopkit import fixtures, market

    island = fixtures.island_scenario()
    hours = fixtures.year_hours(n_hours=200)
    routed, clears = [], []
    real_plan_hour, real_clear_market = market.plan_hour, market.clear_market

    def plan_hour(*args, **kwargs):
        routed.append(real_plan_hour(*args, **kwargs))
        return routed[-1]

    def clear_market(*args, **kwargs):
        clears.append(args[0].hour)
        return real_clear_market(*args, **kwargs)

    monkeypatch.setattr(market, "plan_hour", plan_hour)
    monkeypatch.setattr(market, "clear_market", clear_market)
    records = market.plan(island, hours, policy=policy).records
    via_plan_hour = {id(rec) for rec in routed}
    iterations = sum(rec.iterations for rec in records)
    assert iterations > 0
    assert all(id(rec) in via_plan_hour for rec in records if rec.iterations > 0)
    assert sum(rec.iterations for rec in routed) == iterations
    # each hour is cleared once, and once more per reduction
    assert len(clears) >= len(hours) + iterations
