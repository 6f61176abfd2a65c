import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

from droopkit import dynamics, fixtures
from droopkit.core import (
    Converter,
    DroopAssignment,
    GridScenario,
    NetworkGraph,
    ScenarioError,
    SystemBase,
    kron_reduction,
)
from droopkit.dynamics import (
    _CSV_BLOCK_ROWS,
    _DIVERGENCE_LIMIT,
    ConverterOutage,
    SimulationDiverged,
    Trajectory,
    UnstableModelError,
    WindStep,
    _check_step_stable,
    _droop_matrices,
    _equilibrium,
    _grounded_system,
    _rk4_step_matrices,
    assemble_model,
    attached_node_h2,
    equal_gain_h2,
    h2_decomposition_check,
    h2_norm,
    reduce_grounded,
    simulate,
    trajectory_to_csv,
)
from droopkit.security import post_fault_flows, ssfd


def two_node_scenario(b12=1.0, p=0.0):
    base = SystemBase(100.0)
    conv = (Converter("a", 100.0, p), Converter("b", 100.0, -p))
    net = NetworkGraph(nodes=("a", "b"), edges=(("a", "b", b12),))
    return GridScenario(base, conv, (), net)


def star_scenario(n, b=1.0):
    base = SystemBase(100.0)
    conv = tuple(Converter(f"c{i}", 100.0, 0.0) for i in range(n))
    nodes = tuple(f"c{i}" for i in range(n))
    edges = tuple((f"c{i}", "c0", b) for i in range(1, n))
    net = NetworkGraph(nodes=nodes, edges=edges)
    return GridScenario(base, conv, (), net)


def ring_scenario(n, rng):
    base = SystemBase(100.0)
    conv = tuple(Converter(f"c{i}", 100.0, 0.0) for i in range(n))
    nodes = tuple(f"c{i}" for i in range(n))
    edges = [(f"c{i}", f"c{(i + 1) % n}", float(rng.uniform(0.5, 4.0))) for i in range(n)]
    net = NetworkGraph(nodes=nodes, edges=tuple(edges))
    return GridScenario(base, conv, (), net)


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def test_assemble_blocks_two_nodes():
    scen = two_node_scenario(b12=1.0)
    asn = DroopAssignment(np.full(2, 100.0))  # gains 0.01
    model = assemble_model(scen, asn, tau=0.02)
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(model.L_B, lap)
    assert np.allclose(model.A[2:, :2], -0.5 * lap)  # -(k/tau) L with k/tau = 0.5
    assert np.allclose(model.A[:2, 2:], np.eye(2))
    assert np.allclose(model.A[2:, 2:], -50.0 * np.eye(2))
    assert np.allclose(model.B[2:, :], -0.5 * np.eye(2))
    assert np.allclose(model.C, np.hstack([np.zeros((2, 2)), np.eye(2)]))


def test_disturbance_map_scales_with_gain():
    scen = two_node_scenario()
    tiny = assemble_model(scen, DroopAssignment(np.full(2, 1e9)), tau=0.02)
    assert np.max(np.abs(tiny.B)) <= 1e-9 / 0.02 * 1.01
    # frequency block decays at 1/tau when the droop loop is open
    evals = np.linalg.eigvals(tiny.A)
    assert np.min(evals.real) == pytest.approx(-50.0, rel=1e-3)


@pytest.mark.parametrize("tau", [1e-320, 5e-324])
def test_tau_overflowing_a_or_b_raises_naming_it(tau):
    """1/tau overflows to inf: the model is rejected, and no numpy warning is raised."""
    with pytest.raises(ScenarioError, match=f"tau={tau} is so small that the model's A or B"):
        assemble_model(two_node_scenario(), DroopAssignment.equal(200.0, 2), tau=tau)


def test_assembly_commutes_with_relabeling():
    rng = np.random.default_rng(0)
    scen = fixtures.island_scenario()
    x = rng.uniform(20.0, 200.0, size=6)
    model = assemble_model(scen, DroopAssignment(x), tau=0.02)
    perm = list(rng.permutation(6))
    scen_p = dataclasses.replace(scen, converters=tuple(scen.converters[i] for i in perm))
    model_p = assemble_model(scen_p, DroopAssignment(x[perm]), tau=0.02)
    n = 6
    pmat = np.zeros((n, n))
    for row, src in enumerate(perm):
        pmat[row, src] = 1.0
    big = np.block([[pmat, np.zeros((n, n))], [np.zeros((n, n)), pmat]])
    assert np.allclose(model_p.A, big @ model.A @ big.T, atol=1e-12)
    assert np.allclose(model_p.B, big @ model.B @ pmat.T, atol=1e-12)


def test_wind_at_converter_node_maps_directly():
    base = SystemBase(100.0)
    conv = (Converter("a", 100.0, 0.2), Converter("b", 100.0, 0.0))
    net = NetworkGraph(nodes=("a", "b"), edges=(("a", "b", 1.0),))
    scen = GridScenario(base, conv, (("a", 0.2),), net)
    model = assemble_model(scen, DroopAssignment.equal(200.0, 2), tau=0.02)
    assert np.allclose(model.wind_map, [[1.0], [0.0]])


def _reference_reduced_network(scenario):
    """Laplacian and wind map as assemble_model built them for every gain set."""
    net = scenario.network
    conv_idx = [net.index(c.id) for c in scenario.converters]
    lap, inj_map = kron_reduction(net.laplacian(), conv_idx)
    drop_nodes = [node for i, node in enumerate(net.nodes) if i not in set(conv_idx)]
    drop_pos = {node: j for j, node in enumerate(drop_nodes)}
    conv_pos = {c.id: i for i, c in enumerate(scenario.converters)}
    wind_map = np.zeros((scenario.n, len(scenario.wind_injections)))
    for col, (node, _) in enumerate(scenario.wind_injections):
        if node in conv_pos:
            wind_map[conv_pos[node], col] = 1.0
        else:
            wind_map[:, col] = inj_map[:, drop_pos[node]]
    return lap, wind_map


def test_reduced_network_is_computed_once_read_only_and_keeps_its_bytes(island, two_bus):
    passive = dataclasses.replace(
        island, network=dataclasses.replace(
            island.network, nodes=island.network.nodes + ("spare",),
            edges=island.network.edges + (("spare", "UK", 3.0),)))
    wind_at_converter = dataclasses.replace(two_bus, wind_injections=(("w", 0.5), ("a", 0.1)))
    for scen in (island, two_bus, passive, wind_at_converter, two_node_scenario()):
        first = assemble_model(scen, DroopAssignment.equal(600.0, scen.n), 0.02)
        again = assemble_model(scen, DroopAssignment(np.arange(1.0, scen.n + 1) * 50), 0.05)
        assert first.L_B is again.L_B and first.wind_map is again.wind_map
        for got, want in zip((first.L_B, first.wind_map), _reference_reduced_network(scen)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # simulate's matrix products round by layout, so its bytes need C order too
            assert got.flags.c_contiguous and not got.flags.writeable


def _reference_gain_blocks(k, lap, tau):
    """A, B, C as assemble_model and _grounded_system wrote them out inline."""
    n = k.size
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -(k[:, None] * lap) / tau
    a[n:, n:] = -np.eye(n) / tau
    b = np.zeros((2 * n, n))
    b[n:, :] = -np.diag(k) / tau
    c = np.zeros((n, 2 * n))
    c[:, n:] = np.eye(n)
    return a, b, c


def _reference_reduced_blocks(core, gains_t, tau):
    """A, B, C as reduce_grounded wrote them out inline."""
    m, n = gains_t.shape
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = np.eye(m)
    a[m:, :m] = -core / tau
    a[m:, m:] = -np.eye(m) / tau
    b = np.zeros((2 * m, n))
    b[m:, :] = -gains_t / tau
    c = np.zeros((m, 2 * m))
    c[:, m:] = np.eye(m)
    return a, b, c


@pytest.mark.parametrize("seed", range(5))
def test_droop_matrices_match_inline_assembly_exactly(seed):
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.005, 0.2))
    model = assemble_model(
        fixtures.island_scenario(), DroopAssignment(rng.uniform(20.0, 200.0, 6)), tau
    )
    k, lap = model.k_f, model.L_B
    _, u = np.linalg.eigh(lap)
    core, gains_t = (u.T @ (k[:, None] * lap) @ u)[1:, 1:], (u.T * k[None, :])[1:, :]
    cases = [
        ((model.A, model.B, model.C), _reference_gain_blocks(k, lap, tau)),
        (_droop_matrices(k[:, None] * lap, np.diag(k), tau), _reference_gain_blocks(k, lap, tau)),
        (_droop_matrices(core, gains_t, tau), _reference_reduced_blocks(core, gains_t, tau)),
    ]
    red = reduce_grounded(model)
    cases.append(((red.A, red.B, red.C), _reference_reduced_blocks(core, gains_t, tau)))
    grounded = _grounded_system(lap[1:, 1:], k[1:], tau)
    cases.append(
        ((grounded.A, grounded.B, grounded.C), _reference_gain_blocks(k[1:], lap[1:, 1:], tau))
    )
    for built, reference in cases:
        for got, want in zip(built, reference):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# grounded reduction
# ---------------------------------------------------------------------------


def test_reduction_two_nodes_single_mode_eigenvalue_two():
    model = assemble_model(two_node_scenario(b12=1.0), DroopAssignment.equal(200.0, 2), 0.02)
    red = reduce_grounded(model)
    assert red.A.shape == (2, 2)
    assert np.allclose(np.diag(red.L_B), [2.0])


def test_reduction_star_spectrum():
    n = 6
    model = assemble_model(star_scenario(n), DroopAssignment.equal(600.0, n), 0.02)
    red = reduce_grounded(model)
    eigs = np.sort(np.diag(red.L_B))
    assert np.allclose(eigs, [1.0] * (n - 2) + [n], atol=1e-9)
    assert red.A.shape == (2 * (n - 1), 2 * (n - 1))


def test_reduced_model_is_hurwitz_on_random_graphs():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7):
        scen = ring_scenario(n, rng)
        x = rng.uniform(10.0, 200.0, size=n)
        red = reduce_grounded(assemble_model(scen, DroopAssignment(x), tau=0.02))
        assert np.max(np.linalg.eigvals(red.A).real) < 0


def test_reduction_rejects_disconnected():
    base = SystemBase(100.0)
    conv = tuple(Converter(f"c{i}", 100.0, 0.0) for i in range(4))
    net = NetworkGraph(
        nodes=("c0", "c1", "c2", "c3"),
        edges=(("c0", "c1", 1.0), ("c2", "c3", 1.0)),
    )
    scen = GridScenario(base, conv, (), net)
    model = assemble_model(scen, DroopAssignment.equal(400.0, 4), 0.02)
    with pytest.raises(ScenarioError):
        reduce_grounded(model)


# ---------------------------------------------------------------------------
# H2 norms
# ---------------------------------------------------------------------------


def _reference_h2(model):
    """The Lyapunov route h2_norm replaced: a stability test on eigvals(A), then
    trace(B^T Wo B) with the observability Gramian Wo from scipy."""
    if not np.any(model.B):
        return 0.0
    eigs = np.linalg.eigvals(model.A)
    if np.max(eigs.real) >= -1e-10:
        raise UnstableModelError(f"unstable model: eigenvalue with real part "
                                 f"{np.max(eigs.real):.3e}")
    gram = solve_continuous_lyapunov(model.A.T, -model.C.T @ model.C)
    return float(np.trace(model.B.T @ gram @ model.B))


@st.composite
def _connected_scenarios(draw, n_min=2, n_max=7):
    """n converters and up to two passive nodes, one carrying wind, on a random
    spanning tree plus random chords, susceptances in [0.5, 4]."""
    n = draw(st.integers(n_min, n_max))
    nodes = [f"c{i}" for i in range(n)] + [f"p{i}" for i in range(draw(st.integers(0, 2)))]
    b = st.floats(0.5, 4.0)
    edges = {}
    for i in range(1, len(nodes)):
        edges[(nodes[draw(st.integers(0, i - 1))], nodes[i])] = draw(b)
    for _ in range(draw(st.integers(0, len(nodes)))):
        i, j = sorted(draw(st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.setdefault((nodes[i], nodes[j]), draw(b))
    net = NetworkGraph(nodes=tuple(nodes), edges=tuple((i, j, v) for (i, j), v in edges.items()))
    conv = tuple(Converter(f"c{i}", 100.0, 0.0) for i in range(n))
    wind = ((nodes[-1], 0.3),) if len(nodes) > n else ()
    return GridScenario(SystemBase(100.0), conv, wind, net)


@settings(max_examples=80, deadline=None)
@given(scen=_connected_scenarios(), data=st.data(), tau=st.floats(5e-3, 0.2))
def test_h2_matches_the_lyapunov_reference_on_reduced_models(scen, data, tau):
    x = np.array(data.draw(st.lists(st.floats(10.0, 200.0), min_size=scen.n, max_size=scen.n)))
    red = reduce_grounded(assemble_model(scen, DroopAssignment(x), tau))
    assert h2_norm(red) == pytest.approx(_reference_h2(red), rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(scen=_connected_scenarios(n_min=3), data=st.data(), tau=st.floats(5e-3, 0.2))
def test_h2_matches_the_lyapunov_reference_on_grounded_systems(scen, data, tau):
    x = np.array(data.draw(st.lists(st.floats(10.0, 200.0), min_size=scen.n, max_size=scen.n)))
    model = assemble_model(scen, DroopAssignment(x), tau)
    grounded = _grounded_system(model.L_B[:-1, :-1], model.k_f[:-1], tau)
    assert h2_norm(grounded) == pytest.approx(_reference_h2(grounded), rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(scen=_connected_scenarios(), alpha=st.floats(20.0, 1200.0),
       tau=st.floats(1e-18, 1.0) | st.sampled_from([1e-18, 1e-12, 1e-9, 1.0]))
def test_h2_matches_the_equal_gain_closed_form_at_any_tau(scen, alpha, tau):
    asn = DroopAssignment.equal(alpha, scen.n)
    red = reduce_grounded(assemble_model(scen, asn, tau))
    want = equal_gain_h2(scen.n, float(asn.k_f[0]), tau)
    assert h2_norm(red) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(scen=_connected_scenarios(), data=st.data(), tau=st.floats(1e-18, 1.0))
def test_h2_rejects_every_full_model(scen, data, tau):
    x = np.array(data.draw(st.lists(st.floats(10.0, 200.0), min_size=scen.n, max_size=scen.n)))
    with pytest.raises(UnstableModelError, match="unstable model"):
        h2_norm(assemble_model(scen, DroopAssignment(x), tau))


def test_h2_rejects_full_model(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    with pytest.raises(UnstableModelError):
        h2_norm(model)


def test_h2_equal_gain_closed_form_small():
    model = assemble_model(star_scenario(3), DroopAssignment.equal(300.0, 3), tau=0.02)
    assert h2_norm(reduce_grounded(model)) == pytest.approx(0.005, rel=1e-10)
    assert equal_gain_h2(3, 0.01, 0.02) == 0.005


def test_h2_graph_independent_for_equal_gains():
    rng = np.random.default_rng(1)
    for n in (2, 5, 10):
        for k in (0.005, 0.05):
            for tau in (0.01, 0.1):
                expected = equal_gain_h2(n, k, tau)
                for scen in (star_scenario(n), ring_scenario(n, rng)):
                    asn = DroopAssignment.equal(n / k, n)
                    red = reduce_grounded(assemble_model(scen, asn, tau))
                    assert h2_norm(red) == pytest.approx(expected, rel=1e-8)


def test_h2_zero_gain_is_zero():
    sys0 = _grounded_system(np.array([[1.0]]), np.array([0.0]), 0.02)
    assert h2_norm(sys0) == 0.0


def test_single_attached_node_norm_independent_of_susceptance():
    for b in (0.2, 1.0, 7.0):
        sys1 = _grounded_system(np.array([[b]]), np.array([0.01]), 0.02)
        assert h2_norm(sys1) == pytest.approx(attached_node_h2(0.01, 0.02), rel=1e-10)


def test_h2_monotone_in_gain_delay_and_size():
    assert equal_gain_h2(4, 0.02, 0.02) > equal_gain_h2(4, 0.01, 0.02)
    assert equal_gain_h2(4, 0.01, 0.05) < equal_gain_h2(4, 0.01, 0.02)
    assert equal_gain_h2(5, 0.01, 0.02) > equal_gain_h2(4, 0.01, 0.02)
    # and the Lyapunov route agrees
    scen = star_scenario(4)
    vals = []
    for k in (0.01, 0.02):
        red = reduce_grounded(assemble_model(scen, DroopAssignment.equal(4 / k, 4), 0.02))
        vals.append(h2_norm(red))
    assert vals[1] > vals[0]


# ---------------------------------------------------------------------------
# decomposition of the attached pair
# ---------------------------------------------------------------------------


def test_decomposition_equal_pair_identity(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    dec = h2_decomposition_check(model, 0.01, 0.01)
    assert dec.eps == pytest.approx(2e-4, rel=1e-9)
    assert dec.identity_residual < 1e-12
    assert dec.full == pytest.approx(dec.parts, rel=1e-10)


def test_decomposition_unequal_pair_value():
    model = assemble_model(star_scenario(4), DroopAssignment.equal(400.0, 4), 0.02)
    dec = h2_decomposition_check(model, 0.015, 0.005)
    assert dec.eps == pytest.approx(2.5e-4, rel=1e-9)
    assert dec.eps > 2e-4  # worse than the equal split of the same total
    assert dec.identity_residual < 1e-12


def test_decomposition_matches_for_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        scen = ring_scenario(n, rng)
        x = rng.uniform(10.0, 300.0, size=n)
        model = assemble_model(scen, DroopAssignment(x), tau=float(rng.uniform(0.01, 0.1)))
        k1, k2 = rng.uniform(0.002, 0.05, size=2)
        dec = h2_decomposition_check(model, float(k1), float(k2),
                                     b_m1=float(rng.uniform(0.5, 3.0)),
                                     b_m2=float(rng.uniform(0.5, 3.0)))
        assert dec.full == pytest.approx(dec.parts, rel=1e-8)


def test_equal_split_minimizes_pair_norms():
    sigma, tau = 0.02, 0.02
    model = assemble_model(star_scenario(3), DroopAssignment.equal(300.0, 3), tau)
    sweep = np.linspace(0.001, sigma - 0.001, 41)
    values = []
    for k1 in sweep:
        dec = h2_decomposition_check(model, float(k1), float(sigma - k1))
        values.append(dec.m1 + dec.m2)
    values = np.array(values)
    assert np.argmin(values) == len(sweep) // 2  # symmetric grid: middle is k1 = k2
    assert values.min() == pytest.approx((sigma**2 / 2.0) / (2.0 * tau), rel=1e-9)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_rk4_step_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    scen = ring_scenario(4, rng)
    model = assemble_model(scen, DroopAssignment(rng.uniform(20, 200, 4)), 0.02)
    dt = 1e-3
    phi, gamma = _rk4_step_matrices(model.A, dt)
    assert np.max(np.abs(phi - expm(model.A * dt))) < 1e-8
    # forced response via the augmented exponential (handles singular A)
    g = rng.normal(size=model.A.shape[0])
    x0 = rng.normal(size=model.A.shape[0])
    aug = np.zeros((model.A.shape[0] + 1, model.A.shape[0] + 1))
    aug[:-1, :-1] = model.A
    aug[:-1, -1] = g
    full = expm(aug * dt)
    x_exact = full[:-1, :-1] @ x0 + full[:-1, -1]
    x_rk4 = phi @ x0 + gamma @ g
    # fifth-order local truncation: (dt/tau)**5 scale
    assert np.max(np.abs(x_rk4 - x_exact)) < 1e-8


def test_no_events_stays_at_equilibrium(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    traj = simulate(model, [], dt=1e-3, t_end=0.5)
    assert np.max(np.abs(traj.freq_pu)) < 1e-12
    assert np.allclose(traj.p_pu, traj.p_pu[0], atol=1e-12)
    assert np.allclose(traj.p_pu[0], island.p_ref, atol=1e-9)


def test_wind_step_steady_state_and_alpha_only_dependence(island):
    step = [WindStep(time=0.5, node="WF1", delta_pu=-250.0 / 1850.0)]
    target = (-250.0 / 1850.0) / 600.0
    finals = []
    for x in (np.full(6, 100.0), np.array([10.0, 57.143, 57.143, 57.143, 361.428, 57.143])):
        model = assemble_model(island, DroopAssignment(x), 0.02)
        traj = simulate(model, step, dt=1e-3, t_end=220.0)
        finals.append(traj.freq_pu[-1])
        assert traj.freq_pu[-1] == pytest.approx(np.full(6, target), abs=2e-9)
    assert np.max(np.abs(finals[0] - finals[1])) < 2e-9


def test_outage_steady_state_matches_algebra(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    traj = simulate(model, [ConverterOutage(time=0.5, converter_id="UK")], dt=1e-3, t_end=150.0)
    expect = post_fault_flows(equal600, island, "UK")
    mask = [i for i, cid in enumerate(traj.converter_ids) if cid != "UK"]
    assert traj.p_pu[-1][mask] == pytest.approx(expect, abs=1e-6)
    assert traj.p_pu[-1][0] == 0.0
    assert np.isnan(traj.freq_pu[-1][0])
    dev = ssfd(equal600, island, "UK")
    assert traj.freq_pu[-1][mask] == pytest.approx(np.full(5, dev), abs=1e-6)


def test_two_sequential_outages_reach_double_contingency_steady_state(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    events = [
        ConverterOutage(time=0.5, converter_id="NO"),
        ConverterOutage(time=1.0, converter_id="UK"),
    ]
    traj = simulate(model, events, dt=2e-3, t_end=200.0)
    gone = {"NO", "UK"}
    keep = [i for i, cid in enumerate(island.ids) if cid not in gone]
    surplus = float(island.p_ref[[island.ids.index(c) for c in gone]].sum())
    x_surv = equal600.x[keep]
    dev = surplus / float(x_surv.sum())
    expect = island.p_ref[keep] + x_surv * dev
    assert traj.p_pu[-1][keep] == pytest.approx(expect, abs=1e-6)
    assert np.all(traj.p_pu[-1][[island.ids.index(c) for c in gone]] == 0.0)
    assert np.max(np.abs(traj.total_power() - island.wind_total)) < 1e-8


def test_outage_and_wind_step_at_same_instant(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    events = [
        WindStep(time=0.5, node="WF2", delta_pu=-0.05),
        ConverterOutage(time=0.5, converter_id="BE"),
    ]
    traj = simulate(model, events, dt=1e-3, t_end=150.0)
    keep = [i for i, cid in enumerate(island.ids) if cid != "BE"]
    surplus = float(island.p_ref[island.ids.index("BE")]) - 0.05
    dev = surplus / float(equal600.x[keep].sum())
    expect = island.p_ref[keep] + equal600.x[keep] * dev
    assert traj.p_pu[-1][keep] == pytest.approx(expect, abs=1e-6)


def test_power_conserved_every_sample(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    traj = simulate(model, [ConverterOutage(time=0.3, converter_id="DE")], dt=1e-3, t_end=2.0)
    assert np.max(np.abs(traj.total_power() - island.wind_total)) < 1e-8


def test_pre_step_stability_check_rejects_unstable_step(island, equal600):
    from droopkit.dynamics import SimulationDiverged

    model = assemble_model(island, equal600, 0.02)
    # dt * |eigenvalue| far beyond the stability region of the scheme: the
    # check before the first step raises, so the in-loop guard is never reached
    with pytest.raises(SimulationDiverged, match=r"time step dt=0\.2s is unstable"):
        simulate(model, [WindStep(time=0.0, node="WF1", delta_pu=-0.1)], dt=0.2, t_end=400.0)


@pytest.mark.parametrize("crossing, message_t", [
    (1000, "10.24"),  # checked every 256 steps: caught at step 1024
    (2900, "30"),  # after the last check in the loop at 2816: caught at the segment's end
])
def test_divergence_guard_names_first_checked_step_past_the_crossing(
    island, equal600, monkeypatch, crossing, message_t
):
    # After a wind step at t=0 the island settles at a common frequency
    # deviation, so the angles, and with them the state's largest magnitude,
    # grow at every step; a guard limit between two steps' magnitudes is
    # crossed at a known step.
    model = assemble_model(island, equal600, 0.02)
    dt, t_end = 1e-2, 30.0
    wind = np.array([p for _, p in island.wind_injections])
    x = _equilibrium(model, wind)
    wind[0] += -0.1
    g = np.zeros(12)
    g[6:] = model.k_f * (model.wind_map @ wind - island.p_ref) / model.tau
    phi, gamma = _rk4_step_matrices(model.A, dt)
    magnitudes = [np.max(np.abs(x))]
    for _ in range(3000):
        x = phi @ x + gamma @ g
        magnitudes.append(np.max(np.abs(x)))
    assert np.all(np.diff(magnitudes) > 0)
    monkeypatch.setattr(
        dynamics, "_DIVERGENCE_LIMIT", 0.5 * (magnitudes[crossing - 1] + magnitudes[crossing])
    )
    with pytest.raises(SimulationDiverged, match=rf"beyond \S+ at t={message_t}s; check gains"):
        simulate(model, [WindStep(time=0.0, node="WF1", delta_pu=-0.1)], dt=dt, t_end=t_end)


def test_frequency_reported_in_hz_too(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    traj = simulate(model, [WindStep(time=0.1, node="WF1", delta_pu=-0.1)], dt=1e-3, t_end=1.0)
    assert traj.f_nom_hz == 50.0
    assert np.allclose(traj.freq_hz, traj.freq_pu * 50.0, equal_nan=True)


def test_event_validation(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    with pytest.raises(ScenarioError):
        simulate(model, [WindStep(time=5.0, node="WF1", delta_pu=0.1)], t_end=1.0)
    with pytest.raises(ScenarioError):
        simulate(model, [WindStep(time=0.5, node="nope", delta_pu=0.1)], t_end=1.0)
    red = reduce_grounded(model)
    with pytest.raises(ScenarioError):
        simulate(red, [], t_end=1.0)


@pytest.mark.parametrize("events, message", [
    ([WindStep(time=0.9, node="NOPE", delta_pu=0.1)], "unknown wind node 'NOPE'"),
    ([ConverterOutage(time=0.9, converter_id="NOPE")], "unknown converter id 'NOPE'"),
    ([ConverterOutage(time=0.9, converter_id="UK"), ConverterOutage(time=0.1, converter_id="UK")],
     "outage at t=0.9s of converter 'UK', which is already tripped"),
    ([ConverterOutage(time=0.1 * (j + 1), converter_id=cid)
      for j, cid in enumerate(fixtures.COUNTRIES[:5])], "outage below 2 converters"),
])
def test_bad_event_rejected_before_the_first_step(island, equal600, monkeypatch, events, message):
    def no_stepping(*args, **kwargs):
        raise AssertionError("simulate started stepping")

    monkeypatch.setattr(dynamics, "_rk4_step_matrices", no_stepping)
    model = assemble_model(island, equal600, 0.02)
    with pytest.raises(ScenarioError, match=message):
        simulate(model, events, dt=1e-3, t_end=1.0)


def test_trajectory_csv_layout(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    traj = simulate(model, [ConverterOutage(time=0.1, converter_id="UK")], dt=1e-2, t_end=0.2)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# event: outage UK @ 0.1")
    header = lines[1].split(",")
    assert header[0] == "time_s"
    assert header[1] == "freq_pu_UK" and header[7] == "p_pu_UK"
    assert len(lines) == 2 + 21


def test_unstable_step_rejected_before_integrating_and_names_largest_stable_dt(
    island, equal600
):
    model = assemble_model(island, equal600, 0.02)
    with pytest.raises(SimulationDiverged, match=r"largest stable dt is 0\.0557") as err:
        simulate(model, [], dt=0.1, t_end=30.0)
    assert "from t=0s" in str(err.value)
    # 2.785 / |lambda|max with |lambda|max = 1 / tau = 50 is stable
    assert simulate(model, [], dt=0.0557, t_end=1.0).time.size == 19


def test_off_grid_event_time_rejected(island, equal600):
    model = assemble_model(island, equal600, 0.02)
    with pytest.raises(ScenarioError, match=r"nearest grid times are 0\.5s and 0\.501s"):
        simulate(model, [ConverterOutage(time=0.5005, converter_id="UK")], dt=1e-3, t_end=1.0)
    with pytest.raises(ScenarioError, match="positive and finite"):
        simulate(model, [], dt=1e-3, t_end=float("inf"))


def test_step_count_bound_is_inclusive(island, equal600, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
    model = assemble_model(island, equal600, 0.02)
    assert simulate(model, [], dt=1e-2, t_end=1.0).time.size == 101
    with pytest.raises(ScenarioError, match=r"dt=0\.01s and t_end=1\.01s need 101 steps, "
                                            "more than the 100 a simulation may take"):
        simulate(model, [], dt=1e-2, t_end=1.01)


def test_trajectory_byte_bound_is_inclusive(island, equal600, monkeypatch):
    # n = 6: 8 * (1 + 4 * 6) = 200 bytes per sample, 101 samples at dt = 0.01 over 1 s
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 20_200)
    model = assemble_model(island, equal600, 0.02)
    assert simulate(model, [], dt=1e-2, t_end=1.0).time.size == 101
    with pytest.raises(ScenarioError, match=r"dt=0\.01s and t_end=1\.01s need 20,400 bytes of "
                                            "trajectory and state arrays, more than the 20,200"):
        simulate(model, [], dt=1e-2, t_end=1.01)


def _reference_simulate(model, events, dt, t_end):
    """The per-sample stepping simulate replaced; its bytes are the contract.

    Copied with the input checks left out: it is only given valid events.
    """
    n_steps = int(round(t_end / dt))
    n_all = model.scenario.n
    ordered = sorted(events, key=lambda e: (e.time, isinstance(e, WindStep)))

    all_ids = model.scenario.ids
    times = np.arange(n_steps + 1) * dt
    freq = np.full((n_steps + 1, n_all), np.nan)
    power = np.zeros((n_steps + 1, n_all))

    cur = model
    wind = np.array([p for _, p in model.scenario.wind_injections], dtype=float)
    state = _equilibrium(cur, wind)

    breakpoints = [(int(round(e.time / dt)), e) for e in ordered]
    breakpoints.append((n_steps, None))

    col_of = {cid: j for j, cid in enumerate(all_ids)}
    start = 0
    for stop, event in breakpoints:
        stop = min(max(stop, start), n_steps)
        scen = cur.scenario
        m = scen.n
        lap = cur.L_B
        eff = cur.wind_map @ wind
        g = np.zeros(2 * m)
        g[m:] = cur.k_f * (eff - scen.p_ref) / cur.tau
        phi, gamma = _rk4_step_matrices(cur.A, dt)
        _check_step_stable(cur.A, phi, dt, start * dt)
        drive = gamma @ g

        count = stop - start + 1
        states = np.empty((count, 2 * m))
        x_cur = state
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(count):
                states[j] = x_cur
                if j % 256 == 0 and not np.all(np.abs(x_cur) < _DIVERGENCE_LIMIT):
                    raise SimulationDiverged(
                        f"state magnitude beyond {_DIVERGENCE_LIMIT:g} at "
                        f"t={(start + j) * dt:g}s; check gains and time step"
                    )
                if j < count - 1:
                    x_cur = phi @ x_cur + drive
        state = x_cur
        if not np.all(np.abs(state) < _DIVERGENCE_LIMIT):
            raise SimulationDiverged(
                f"state magnitude beyond {_DIVERGENCE_LIMIT:g} at t={stop * dt:g}s; "
                "check gains and time step"
            )

        cols = [col_of[cid] for cid in scen.ids]
        freq[start : stop + 1, cols] = states[:, m:]
        power[start : stop + 1, cols] = states[:, :m] @ (-lap.T) + eff

        if event is None:
            break
        if isinstance(event, WindStep):
            wind[[node for node, _ in scen.wind_injections].index(event.node)] += event.delta_pu
        else:
            gone = scen.converter_index(event.converter_id)
            keep = [i for i in range(scen.n) if i != gone]
            survivors = dataclasses.replace(
                scen, converters=tuple(scen.converters[i] for i in keep)
            )
            cur = assemble_model(survivors, DroopAssignment(cur.assignment.x[keep]), cur.tau)
            # survivors keep their angle and frequency states across the trip;
            # the sample at the event instant reflects the post-event network
            state = np.concatenate([state[:m][keep], state[m:][keep]])
            freq[stop, col_of[event.converter_id]] = np.nan
            power[stop, col_of[event.converter_id]] = 0.0
        start = stop

    return Trajectory(
        time=times,
        converter_ids=all_ids,
        freq_pu=freq,
        p_pu=power,
        events=tuple(ordered),
        f_nom_hz=model.scenario.base.f_nom_hz,
    )


@st.composite
def _simulation_cases(draw):
    """Gains >= x_min summing to alpha, a dt, a horizon and events on its grid.

    Each shape puts events where segments meet awkwardly: an outage at the
    first or the last sample, a wind step and an outage at one instant, two
    outages on consecutive steps; "any" draws up to three events anywhere.
    """
    dt = draw(st.sampled_from([1e-3, 5e-3, 1e-2]))
    n_steps = draw(st.integers(1, 700))
    shares = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6)))
    x = 10.0 + shares / shares.sum() * (600.0 - 6 * 10.0)
    ids = list(fixtures.COUNTRIES)
    tripped = draw(st.permutations(ids))
    step = draw(st.integers(0, n_steps))
    wind = WindStep(step * dt, draw(st.sampled_from(fixtures.WIND_NODES)),
                    draw(st.floats(-0.2, 0.2)))
    shape = draw(st.sampled_from(["outage at 0", "outage at end", "wind and outage",
                                  "outages in a row", "any"]))
    if shape == "outage at 0":
        events = [ConverterOutage(0.0, tripped[0]), wind]
    elif shape == "outage at end":
        events = [wind, ConverterOutage(n_steps * dt, tripped[0])]
    elif shape == "wind and outage":
        events = [ConverterOutage(step * dt, tripped[0]), wind]
    elif shape == "outages in a row":
        first = min(step, n_steps - 1)
        events = [ConverterOutage(first * dt, tripped[0]),
                  ConverterOutage((first + 1) * dt, tripped[1])]
    else:
        steps = draw(st.lists(st.integers(0, n_steps), max_size=3))
        events = [ConverterOutage(k * dt, cid) for k, cid in zip(steps, tripped)]
        if draw(st.booleans()):
            events.append(wind)
    return x, dt, n_steps * dt, events


@settings(max_examples=60, deadline=None)
@given(case=_simulation_cases())
def test_simulate_bytes_match_per_sample_reference(case):
    x, dt, t_end, events = case
    model = assemble_model(fixtures.island_scenario(), DroopAssignment(x), 0.02)
    got = simulate(model, events, dt=dt, t_end=t_end)
    want = _reference_simulate(model, events, dt, t_end)
    for field in ("time", "freq_pu", "p_pu"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.events == want.events


def _reference_trajectory_csv(traj):
    """The per-cell formatter trajectory_to_csv replaced; its bytes are the contract."""
    lines = []
    for ev in traj.events:
        if isinstance(ev, WindStep):
            lines.append(f"# event: wind step {ev.node} {ev.delta_pu:+.12g} pu @ {ev.time:.12g}s")
        else:
            lines.append(f"# event: outage {ev.converter_id} @ {ev.time:.12g}s")
    header = ["time_s"]
    header += [f"freq_pu_{cid}" for cid in traj.converter_ids]
    header += [f"p_pu_{cid}" for cid in traj.converter_ids]
    lines.append(",".join(header))
    for row in range(traj.time.size):
        cells = [f"{traj.time[row]:.12g}"]
        cells += [f"{v:.12g}" for v in traj.freq_pu[row]]
        cells += [f"{v:.12g}" for v in traj.p_pu[row]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [
    np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
    1e300, -1.7976931348623157e308, 1e-300, -3.3e-301, 0.1, 1.0 / 3.0, 123456789012.5,
    # NaNs with a payload, of either sign: bits the writer must not confuse with nan's
    *np.array([0x7FF0000000000001, 0xFFF0000000000001], dtype=np.uint64).view(np.float64).tolist(),
]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from([0, 1, 2, 4095, 4096, 4097, 8193]),
    n_conv=st.integers(1, 4),
    pool=st.lists(st.floats(allow_subnormal=True), max_size=8),
    seed=st.integers(0, 2**32 - 1),
    outage=st.booleans(),
    distinct=st.booleans(),
    straddle=st.floats(allow_subnormal=True),
)
def test_trajectory_csv_bytes_match_per_cell_reference(
    rows, n_conv, pool, seed, outage, distinct, straddle
):
    rng = np.random.default_rng(seed)
    if distinct:  # fresh bits in every cell: no value repeats within a block
        freq, power = (rng.integers(0, 2**64, size=(rows, n_conv), dtype=np.uint64)
                       .view(np.float64) for _ in range(2))
    else:
        values = np.array(_SPECIAL_FLOATS + pool)
        freq, power = (rng.choice(values, size=(rows, n_conv)) for _ in range(2))
    # one value on both sides of a block boundary, formatted once in each block
    freq[_CSV_BLOCK_ROWS - 1 : _CSV_BLOCK_ROWS + 1] = straddle
    power[_CSV_BLOCK_ROWS - 1 : _CSV_BLOCK_ROWS + 1, -1] = straddle
    events = (WindStep(time=0.25, node="WF1", delta_pu=-1e-300),)
    if outage:
        freq[rows // 2 :, 0] = np.nan
        power[rows // 2 :, 0] = 0.0
        events += (ConverterOutage(time=0.5, converter_id="c0"),)
    traj = Trajectory(
        time=np.arange(rows) * 1e-3,
        converter_ids=tuple(f"c{i}" for i in range(n_conv)),
        freq_pu=freq,
        p_pu=power,
        events=events,
    )
    assert trajectory_to_csv(traj) == _reference_trajectory_csv(traj)
