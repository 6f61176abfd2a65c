import dataclasses

import numpy as np
import pytest

from droopkit import fixtures
from droopkit.core import Converter, DroopAssignment, GridScenario, NetworkGraph, SystemBase


@pytest.fixture
def island():
    """Six-converter island with the critical-hour loading, balanced wind."""
    return fixtures.island_scenario()


@pytest.fixture
def equal600():
    return DroopAssignment.equal(600.0, 6)


@pytest.fixture
def two_bus():
    base = SystemBase(100.0)
    conv = (Converter("a", 100.0, 0.3), Converter("b", 100.0, 0.2))
    net = NetworkGraph(nodes=("a", "b", "w"), edges=(("a", "b", 1.0), ("w", "a", 2.0)))
    return GridScenario(base, conv, (("w", 0.5),), net)


def random_scenario(rng: np.random.Generator, n: int | None = None) -> GridScenario:
    """Random balanced star scenario with loadings inside the limits."""
    n = int(rng.integers(3, 7)) if n is None else n
    base = SystemBase(1000.0)
    p = rng.uniform(-0.6, 0.9, size=n)
    conv = tuple(
        Converter(f"c{i}", rating_mva=1000.0, p_ref=float(p[i]), p_max=0.95) for i in range(n)
    )
    wind = ((f"wf0", float(max(p.sum(), 0.0))),)
    return GridScenario.with_star_network(base, conv, wind)


def scenario_with_flows(template: GridScenario, p_ref_pu) -> GridScenario:
    """``template`` with every converter set-point replaced by ``p_ref_pu``."""
    converters = tuple(
        dataclasses.replace(conv, p_ref=float(p))
        for conv, p in zip(template.converters, p_ref_pu)
    )
    return dataclasses.replace(template, converters=converters)
