import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from droopkit.core import (
    Converter,
    DroopAssignment,
    GridScenario,
    NetworkGraph,
    ScenarioError,
    SystemBase,
    deviation_hz,
    from_per_unit,
    kron_reduction,
    to_per_unit,
    validate_scenario,
)
from droopkit.security import is_secure
from tests.conftest import scenario_with_flows

BASE = SystemBase(1850.0, 50.0)


# ---------------------------------------------------------------------------
# per-unit conversion
# ---------------------------------------------------------------------------


def test_per_unit_reference_values():
    assert to_per_unit(1740.0, BASE) == pytest.approx(0.9405405405405406, abs=1e-15)
    assert to_per_unit(0.0, BASE) == 0.0
    assert to_per_unit(1850.0, BASE) == 1.0


@given(st.floats(-1e4, 1e4), st.floats(1.0, 1e4))
def test_per_unit_round_trip(mw, s_base):
    base = SystemBase(s_base)
    back = from_per_unit(to_per_unit(mw, base), base)
    assert back == pytest.approx(mw, rel=1e-12, abs=1e-12)


def test_deviation_hz():
    assert deviation_hz(1.8810810810810812e-3, BASE) == pytest.approx(0.09405405405, rel=1e-9)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_system_base_rejects_nonpositive():
    with pytest.raises(ScenarioError):
        SystemBase(0.0)
    with pytest.raises(ScenarioError):
        SystemBase(100.0, f_nom_hz=-1.0)


def test_converter_bounds():
    with pytest.raises(ScenarioError):
        Converter("a", 100.0, 0.5, p_max=1.5)
    with pytest.raises(ScenarioError):
        Converter("a", 100.0, 0.5, x_min=0.0)
    conv = Converter("a", 100.0, -0.4)
    assert conv.headroom == pytest.approx(0.55)


def test_network_graph_construction_errors():
    with pytest.raises(ScenarioError):
        NetworkGraph(nodes=("a",), edges=(("a", "a", 1.0),))
    with pytest.raises(ScenarioError):
        NetworkGraph(nodes=("a", "b"), edges=(("a", "c", 1.0),))
    with pytest.raises(ScenarioError):
        NetworkGraph(nodes=("a", "b"), edges=(("a", "b", -1.0),))


def test_assignment_derived_fields():
    a = DroopAssignment(np.array([10.0, 590.0]))
    assert a.alpha == pytest.approx(600.0)
    assert np.allclose(a.k_f * a.x, 1.0)
    eq = DroopAssignment.equal(600.0, 6)
    assert np.all(eq.x == 100.0)
    with pytest.raises(ScenarioError):
        DroopAssignment(np.array([1.0, -2.0]))


@pytest.mark.parametrize("tiny", [5e-324, 1e-320, 5.5e-309])
def test_assignment_rejects_gain_whose_droop_gain_overflows(tiny):
    with pytest.raises(ScenarioError, match=f"x={tiny!r} is too small: its droop gain 1/x"):
        DroopAssignment(np.array([100.0, tiny]))
    # the smallest normal double still has a finite reciprocal
    small = DroopAssignment(np.array([100.0, 2.2250738585072014e-308]))
    assert np.isfinite(small.k_f).all()


def test_core_types_immutable(island):
    with pytest.raises(dataclasses.FrozenInstanceError):
        island.base.s_base_mva = 1.0
    with pytest.raises(ValueError):
        island.p_ref[0] = 2.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_clean_island(island):
    assert validate_scenario(island) is None


def test_validate_duplicate_id(island):
    with pytest.raises(ScenarioError, match="duplicate converter id 'UK'"):
        dataclasses.replace(
            island, converters=island.converters[:-1] + (island.converters[0],)
        )


def test_validate_setpoint_beyond_limit(island):
    bad = dataclasses.replace(island.converters[1], p_ref=0.96)
    scen = dataclasses.replace(
        island, converters=island.converters[:1] + (bad,) + island.converters[2:]
    )
    with pytest.raises(ScenarioError, match="set-point exceeds limit"):
        validate_scenario(scen)


def test_validate_disconnected_network():
    base = SystemBase(100.0)
    conv = (Converter("a", 100.0, 0.0), Converter("b", 100.0, 0.0))
    net = NetworkGraph(nodes=("a", "b"), edges=())
    with pytest.raises(ScenarioError, match="disconnected"):
        validate_scenario(GridScenario(base, conv, (), net))


def _screen_with_nan_set_point(island):
    """A NaN set-point passes every sign test and used to screen as N-1 secure."""
    scen = scenario_with_flows(island, [math.nan, *island.p_ref[1:]])
    return is_secure(DroopAssignment.equal(600.0, 6), scen)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda island: SystemBase(math.nan), "s_base_mva must be finite, got nan",
                 id="s_base_mva"),
    pytest.param(lambda island: SystemBase(1850.0, f_nom_hz=math.inf),
                 "f_nom_hz must be finite, got inf", id="f_nom_hz"),
    pytest.param(lambda island: SystemBase(1850.0, omega_ref=math.inf),
                 "omega_ref must be finite, got inf", id="omega_ref"),
    pytest.param(lambda island: Converter("UK", math.inf, 0.5),
                 "converter UK: rating_mva must be finite, got inf", id="rating_mva"),
    pytest.param(lambda island: Converter("UK", 1850.0, 0.5, x_min=math.inf),
                 "converter UK: x_min must be finite, got inf", id="x_min"),
    pytest.param(_screen_with_nan_set_point, "converter UK: p_ref must be finite, got nan",
                 id="p_ref-is_secure"),
    pytest.param(lambda island: NetworkGraph(("a", "b"), (("a", "b", math.inf),)),
                 "edge (a, b) susceptance must be finite, got inf", id="susceptance"),
    pytest.param(lambda island: dataclasses.replace(island, wind_injections=(("WF1", math.nan),)),
                 "wind injection at WF1 must be finite, got nan", id="wind"),
    pytest.param(lambda island: dataclasses.replace(
        island, network=NetworkGraph(("UK", "island"), (("UK", "island", 10.0),))),
        "converter DE not present in network", id="converter-node"),
    pytest.param(lambda island: dataclasses.replace(island, wind_injections=(("WF9", 0.5),)),
                 "wind node WF9 not present in network", id="wind-node"),
    pytest.param(lambda island: dataclasses.replace(island, wind_injections=(("WF2", -0.5),)),
                 "wind injection at WF2 must be non-negative", id="negative-wind"),
    pytest.param(lambda island: is_secure(DroopAssignment(np.array([1e20] + [1e-5] * 5)), island),
                 "converter UK: inverse droop gain x=1e+20 leaves no surviving stiffness",
                 id="surviving-stiffness-is_secure"),
])
def test_non_finite_field_raises_naming_it(island, build, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        build(island)


# ---------------------------------------------------------------------------
# Laplacian and reduction
# ---------------------------------------------------------------------------


@given(st.integers(2, 8), st.integers(0, 10_000))
def test_laplacian_spectrum_of_random_connected_graph(n, seed):
    rng = np.random.default_rng(seed)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = [(f"n{i}", f"n{i + 1}", float(rng.uniform(0.5, 5.0))) for i in range(n - 1)]
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((f"n{i}", f"n{j}", float(rng.uniform(0.5, 5.0))))
    net = NetworkGraph(nodes=nodes, edges=tuple(edges))
    lap = net.laplacian()
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    evals = np.linalg.eigvalsh(lap)
    assert abs(evals[0]) < 1e-9
    assert evals[1] > 0


def test_kron_reduction_preserves_laplacian_structure(island):
    net = island.network
    lap = net.laplacian()
    keep = [net.index(c.id) for c in island.converters]
    red, inj = kron_reduction(lap, keep)
    assert np.allclose(red, red.T)
    assert np.allclose(red.sum(axis=1), 0.0, atol=1e-9)
    evals = np.linalg.eigvalsh(red)
    assert abs(evals[0]) < 1e-9 and evals[1] > 0
    # equivalent injections of eliminated nodes are conserved
    assert np.allclose(inj.sum(axis=0), 1.0, atol=1e-9)


def test_star_builder_grounds_island_bus(island):
    assert island.network.grounded_node == "island"
    assert island.network.is_connected()
    assert len(island.network.edges) == len(island.network.nodes) - 1
