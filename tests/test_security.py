import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droopkit.core import Converter, DroopAssignment, GridScenario, ScenarioError, SystemBase
from droopkit.security import (
    VIOLATION_TOL,
    droop_response,
    post_fault_excess,
    post_fault_flows,
    post_fault_sharing,
    reports_to_csv,
    screen_all_contingencies,
    ssfd,
)
from tests.conftest import random_scenario

UK_OUTAGE_PU = 1740.0 / 1850.0  # 0.9405405...


def scenario_from(p_ref, p_max=0.95):
    base = SystemBase(1850.0, 50.0)
    conv = tuple(
        Converter(f"c{i}", 1850.0, float(p), p_max=p_max) for i, p in enumerate(p_ref)
    )
    wind = (("wf", float(sum(p_ref))),) if sum(p_ref) > 0 else ()
    return GridScenario.with_star_network(base, conv, wind)


# ---------------------------------------------------------------------------
# closed-form reference values
# ---------------------------------------------------------------------------


def test_droop_response_examples():
    assert droop_response(0.5, 100.0, 0.0) == 0.5
    assert droop_response(0.5, 100.0, 1.8810810810810812e-3) == pytest.approx(
        0.6881081081081081, abs=1e-12
    )
    assert droop_response(0.0, 10.0, -2e-3) == pytest.approx(-0.02, abs=1e-15)
    with pytest.raises(ScenarioError):
        droop_response(0.5, 0.0, 0.0)


def test_ssfd_heavy_link_outage_six_converters():
    scen = scenario_from([UK_OUTAGE_PU, 0.5, 0.5, 0.5, 0.5, 0.5])
    eq = DroopAssignment.equal(600.0, 6)
    dev = ssfd(eq, scen, "c0")
    assert dev == pytest.approx(UK_OUTAGE_PU / 500.0, abs=1e-15)
    assert dev == pytest.approx(1.8810810810810812e-3, abs=1e-12)


def test_ssfd_zero_setpoint_and_two_converter_case():
    scen = scenario_from([0.0, 0.4])
    eq = DroopAssignment.equal(600.0, 2)
    assert ssfd(eq, scen, "c0") == 0.0

    scen2 = scenario_from([0.5, 0.4])
    asn = DroopAssignment(np.array([10.0, 590.0]))
    assert ssfd(asn, scen2, "c0") == pytest.approx(0.5 / 590.0, abs=1e-15)


def test_post_fault_flows_equal_sharing():
    scen = scenario_from([UK_OUTAGE_PU, 0.5, 0.5, 0.5, 0.5, 0.5])
    eq = DroopAssignment.equal(600.0, 6)
    flows = post_fault_flows(eq, scen, "c0")
    assert flows == pytest.approx(np.full(5, 0.6881081081081081), abs=1e-12)
    # 1740 MW over five converters is 348 MW each
    assert (flows[0] - 0.5) * 1850.0 == pytest.approx(348.0, abs=1e-9)


def test_post_fault_violation_flagged_near_limit():
    scen = scenario_from([UK_OUTAGE_PU, 0.90, 0.90, 0.90, 0.90, 0.90])
    eq = DroopAssignment.equal(600.0, 6)
    flows = post_fault_flows(eq, scen, "c0")
    assert flows[0] == pytest.approx(0.90 + 0.18810810810810812, abs=1e-12)
    reports = {r.outage_id: r for r in screen_all_contingencies(eq, scen)}
    assert not reports["c0"].secure
    violated = dict(reports["c0"].violations)
    assert violated["c1"] == pytest.approx(1.0881081081081081 - 0.95, abs=1e-12)


def test_no_redistribution_without_setpoint():
    scen = scenario_from([0.0, 0.3, 0.2])
    asn = DroopAssignment(np.array([50.0, 100.0, 150.0]))
    flows = post_fault_flows(asn, scen, "c0")
    assert flows == pytest.approx(np.array([0.3, 0.2]), abs=1e-15)


def test_screen_zero_loading_secure_any_assignment():
    scen = scenario_from([0.0, 0.0, 0.0, 0.0])
    for x in ([10.0, 20.0, 400.0, 70.0], [100.0] * 4):
        reports = screen_all_contingencies(DroopAssignment(np.array(x)), scen)
        assert all(r.secure for r in reports)


def test_outage_id_must_exist(island, equal600):
    with pytest.raises(ScenarioError):
        ssfd(equal600, island, "XX")
    with pytest.raises(ScenarioError):
        ssfd(DroopAssignment(np.array([1.0, 2.0])), island, "UK")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_redistribution_conserves_imbalance(seed):
    rng = np.random.default_rng(seed)
    scen = random_scenario(rng)
    x = rng.uniform(10.0, 300.0, size=scen.n)
    asn = DroopAssignment(x)
    for k, conv in enumerate(scen.converters):
        flows = post_fault_flows(asn, scen, conv.id)
        pre = scen.p_ref[np.arange(scen.n) != k]
        total = float((flows - pre).sum())
        assert total == pytest.approx(float(scen.p_ref[k]), rel=1e-12, abs=1e-12)


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_flows_consistent_with_droop_response(seed):
    rng = np.random.default_rng(seed)
    scen = random_scenario(rng)
    x = rng.uniform(10.0, 300.0, size=scen.n)
    asn = DroopAssignment(x)
    outage = scen.converters[int(rng.integers(scen.n))].id
    dev = ssfd(asn, scen, outage)
    flows = post_fault_flows(asn, scen, outage)
    k = scen.converter_index(outage)
    survivors = [i for i in range(scen.n) if i != k]
    for pos, i in enumerate(survivors):
        direct = droop_response(float(scen.p_ref[i]), float(x[i]), dev)
        assert flows[pos] == pytest.approx(direct, rel=1e-12, abs=1e-14)


@given(st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_share_monotone_in_own_gain(seed):
    rng = np.random.default_rng(seed)
    scen = random_scenario(rng, n=int(rng.integers(3, 7)))
    x = rng.uniform(10.0, 300.0, size=scen.n)
    i, k = rng.choice(scen.n, size=2, replace=False)
    alpha_off = lambda xv: xv / (xv.sum() - xv[k])

    bigger = x.copy()
    bigger[i] *= 1.5
    assert alpha_off(bigger)[i] > alpha_off(x)[i]


def _reference_screen_sharing(x, p_ref):
    """Per-outage SSFD and survivor flows, computed the way the screen once
    did: one outage at a time, in Python floats for the deviation."""
    alpha = float(x.sum())
    deltas, flows = [], []
    for k in range(x.size):
        delta = float(p_ref[k]) / (alpha - float(x[k]))
        mask = np.arange(x.size) != k
        deltas.append(delta)
        flows.append(p_ref[mask] + x[mask] * delta)
    return deltas, flows


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n),
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_post_fault_sharing_matches_per_outage_screen_bit_for_bit(data):
    x, p_ref = (np.array(v, dtype=float) for v in data)
    delta, flows = post_fault_sharing(x, p_ref, float(x.sum()))
    ref_delta, ref_flows = _reference_screen_sharing(x, p_ref)
    assert delta.shape == (x.size,) and flows.shape == (x.size, x.size)
    for k in range(x.size):
        assert np.array(ref_delta[k]).tobytes() == delta[k].tobytes()
        assert ref_flows[k].tobytes() == flows[k, np.arange(x.size) != k].tobytes()


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1.0, 300.0), min_size=n, max_size=n),
            st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, 0.5, 0.95]),
                     min_size=n, max_size=n),
            st.lists(st.sampled_from([0.5, 0.95, 1.0]), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_post_fault_excess_flags_exactly_the_screened_violations(data):
    x, p_ref, p_max = (np.array(v, dtype=float) for v in data)
    conv = tuple(Converter(f"c{i}", 100.0, float(p), p_max=float(m))
                 for i, (p, m) in enumerate(zip(p_ref, p_max)))
    scen = GridScenario.with_star_network(SystemBase(100.0), conv)
    asn = DroopAssignment(x)
    excess = post_fault_excess(x, p_ref, p_max, asn.alpha)
    assert np.all(np.diag(excess) == 0.0)
    reports = screen_all_contingencies(asn, scen)
    screened = {(rep.outage_id, cid, v) for rep in reports for cid, v in rep.violations}
    flagged = {(scen.ids[k], scen.ids[i], float(excess[k, i]))
               for k, i in zip(*np.nonzero(excess > VIOLATION_TOL))}
    assert flagged == screened
    columns = np.flatnonzero(np.any(excess > VIOLATION_TOL, axis=0))
    assert {scen.ids[i] for i in columns} == {cid for _, cid, _ in screened}


@st.composite
def stacked_set_points(draw):
    """(x, p_ref, p_max) with p_ref of shape (H, n), H in 0..4; x is either
    one (n,) vector shared by every row or stacked as (H, n) too."""
    n, h = draw(st.integers(2, 7)), draw(st.integers(0, 4))
    rows = lambda values: st.lists(st.lists(values, min_size=n, max_size=n),
                                   min_size=h, max_size=h)
    p_ref = np.array(draw(rows(st.floats(-1.0, 1.0) | st.sampled_from([0.0, 0.95]))),
                     dtype=float).reshape(h, n)
    gains = st.floats(1e-3, 1e4)
    if draw(st.booleans()):
        x = np.array(draw(st.lists(gains, min_size=n, max_size=n)))
    else:
        x = np.array(draw(rows(gains)), dtype=float).reshape(h, n)
    p_max = np.array(draw(st.lists(st.sampled_from([0.5, 0.95, 1.0]), min_size=n, max_size=n)))
    return x, p_ref, p_max


@given(stacked_set_points())
@settings(max_examples=200, deadline=None)
def test_stacked_post_fault_excess_matches_the_per_row_calls_bit_for_bit(data):
    x, p_ref, p_max = data
    alpha = float(x.sum(axis=-1).max()) if x.size else 1.0
    delta, flows = post_fault_sharing(x, p_ref, alpha)
    excess = post_fault_excess(x, p_ref, p_max, alpha)
    h, n = p_ref.shape
    assert delta.shape == (h, n) and flows.shape == excess.shape == (h, n, n)
    for row in range(h):
        x_row = x if x.ndim == 1 else x[row]
        row_delta, row_flows = post_fault_sharing(x_row, p_ref[row], alpha)
        assert delta[row].tobytes() == row_delta.tobytes()
        assert flows[row].tobytes() == row_flows.tobytes()
        assert excess[row].tobytes() == post_fault_excess(x_row, p_ref[row], p_max,
                                                          alpha).tobytes()


@given(st.integers(0, 2_000), st.floats(0.1, 5.0))
@settings(max_examples=40, deadline=None)
def test_scale_covariance(seed, factor):
    import dataclasses

    rng = np.random.default_rng(seed)
    scen = random_scenario(rng)
    x = rng.uniform(10.0, 300.0, size=scen.n)
    asn = DroopAssignment(x)
    scaled = dataclasses.replace(
        scen,
        converters=tuple(
            dataclasses.replace(c, p_ref=c.p_ref * factor, p_max=1.0) for c in scen.converters
        ),
    )
    base = dataclasses.replace(
        scen, converters=tuple(dataclasses.replace(c, p_max=1.0) for c in scen.converters)
    )
    outage = scen.converters[0].id
    assert ssfd(asn, scaled, outage) == pytest.approx(
        factor * ssfd(asn, base, outage), rel=1e-12, abs=1e-15
    )
    d_scaled = post_fault_flows(asn, scaled, outage) - scaled.p_ref[1:]
    d_base = post_fault_flows(asn, base, outage) - base.p_ref[1:]
    assert d_scaled == pytest.approx(factor * d_base, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# CSV surface
# ---------------------------------------------------------------------------


def test_report_csv_columns_and_rows(island, equal600):
    reports = screen_all_contingencies(equal600, island)
    text = reports_to_csv(reports, island)
    lines = text.strip().splitlines()
    assert lines[0] == "outage_id,converter_id,p_pre_mw,p_post_mw,limit_mw,violation_mw,ssfd_hz"
    assert len(lines) == 1 + 6 * 5
    # UK outage row: each survivor picks up 348 MW
    uk_rows = [ln for ln in lines[1:] if ln.startswith("UK,DE,")]
    cells = uk_rows[0].split(",")
    assert float(cells[3]) - float(cells[2]) == pytest.approx(348.0, abs=1e-6)
