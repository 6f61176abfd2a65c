import numpy as np
import pytest

from droopkit import fixtures, market
from droopkit.core import DroopAssignment, ScenarioError
from droopkit.market import (
    BidSegment,
    HourScenario,
    clear_market,
    duration_curves,
    plan,
    plan_hour,
)
from droopkit.security import is_secure


def make_hour(offered, wind, hour=0, prices=None):
    offered = np.asarray(offered, dtype=float)
    links = fixtures.COUNTRIES[: offered.size]
    if prices is None:
        prices = [60.0 - 2.0 * j for j in range(offered.size)]
    bids = tuple(
        (BidSegment(quantity_mw=float(cap), price_eur_mwh=float(price)),)
        for cap, price in zip(offered, prices)
    )
    return HourScenario(hour=hour, wind_mw=float(wind), link_ids=links,
                        offered_mw=offered, bids=bids)


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------


def test_zero_capacity_clears_to_zero():
    hour = make_hour([0.0] * 6, wind=5000.0)
    flows = clear_market(hour)
    assert np.all(flows == 0.0)


def test_single_link_capacity_binds():
    hour = make_hour([1000.0], wind=1740.0)
    flows = clear_market(hour)
    assert flows[0] == 1000.0
    assert hour.wind_mw - flows.sum() == pytest.approx(740.0)


def test_equal_price_tie_fills_lower_index_first():
    hour = make_hour([500.0, 500.0], wind=600.0, prices=[50.0, 50.0])
    flows = clear_market(hour)
    assert flows[0] == 500.0 and flows[1] == pytest.approx(100.0)


def test_non_positive_prices_never_clear():
    hour = make_hour([500.0, 500.0], wind=900.0, prices=[50.0, 0.0])
    flows = clear_market(hour)
    assert flows[0] == 500.0 and flows[1] == 0.0


def test_wind_budget_shared_by_price_order():
    hour = make_hour([400.0, 400.0, 400.0], wind=700.0, prices=[40.0, 60.0, 50.0])
    flows = clear_market(hour)
    assert flows[1] == 400.0 and flows[2] == 300.0 and flows[0] == 0.0


def test_empty_bid_curve_clears_nothing():
    hour = HourScenario(hour=0, wind_mw=500.0, link_ids=("UK", "DE"),
                        offered_mw=np.array([300.0, 300.0]),
                        bids=((), (BidSegment(100.0, 40.0),)))
    flows = clear_market(hour)
    assert flows[0] == 0.0 and flows[1] == 100.0


def test_multi_segment_curve_fills_in_price_order():
    bids = (
        (BidSegment(200.0, 70.0), BidSegment(200.0, 30.0)),
        (BidSegment(300.0, 50.0),),
    )
    hour = HourScenario(hour=0, wind_mw=600.0, link_ids=("UK", "DE"),
                        offered_mw=np.array([400.0, 300.0]), bids=bids)
    flows = clear_market(hour)
    # 70-priced segment first, then the 50, then the leftover 30-priced one
    assert flows[0] == pytest.approx(300.0) and flows[1] == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# planning one hour
# ---------------------------------------------------------------------------


def hour3_hour():
    offered = np.array(fixtures.HOUR3_FLOWS_MW)
    return HourScenario(
        hour=3,
        wind_mw=float(offered.sum()),
        link_ids=fixtures.COUNTRIES,
        offered_mw=offered,
        bids=fixtures.bid_curves("diurnal", 3, fixtures.COUNTRIES, offered),
        bid_fixture="diurnal",
    )


def test_hour3_equal_reduces_adaptive_does_not(island):
    hour = hour3_hour()
    rec_eq = plan_hour(island, hour, policy="equal")
    rec_ad = plan_hour(island, hour, policy="adaptive")
    assert rec_eq.iterations >= 1
    assert rec_eq.reduced_mw.sum() >= 50.0
    assert rec_ad.iterations == 0
    assert rec_ad.reduced_mw.sum() == 0.0
    assert rec_ad.droop_status == "optimal"
    assert rec_ad.curtailed_mwh <= rec_eq.curtailed_mwh - 50.0


def test_zero_wind_hour_terminates_immediately(island):
    hour = make_hour([1700.0] * 6, wind=0.0)
    for policy in ("equal", "adaptive"):
        rec = plan_hour(island, hour, policy=policy)
        assert rec.iterations == 0
        assert np.all(rec.flow_mw == 0.0)
        assert rec.curtailed_mwh == 0.0


def test_single_violation_of_30mw_needs_one_step(island):
    # equal gains: a DE outage pushes UK over by exactly 30 MW, nothing else binds
    offered = np.array([1500.0, 1437.5, 100.0, 100.0, 100.0, 100.0])
    hour = make_hour(offered, wind=float(offered.sum()))
    rec = plan_hour(island, hour, policy="equal")
    assert rec.iterations == 1
    assert rec.reduced_mw[0] == 50.0
    assert np.all(rec.reduced_mw[1:] == 0.0)


def test_planning_records_are_secure_and_conserve_wind(island):
    hours = fixtures.year_hours(n_hours=40, seed=3)
    for policy in ("equal", "adaptive"):
        run = plan(island, hours, policy=policy)
        for hour, rec in zip(hours, run.records):
            assert rec.flow_mw.sum() + rec.curtailed_mwh == pytest.approx(hour.wind_mw)
            assert np.all(rec.capacity_mw <= rec.offered_mw + 1e-12)
            scen = island
            asn = DroopAssignment(rec.x)
            import droopkit.market as mkt

            final_scen = mkt._scenario_with_flows(scen, rec.flow_mw / scen.base.s_base_mva)
            assert is_secure(asn, final_scen)


def test_adaptive_dominates_equal_per_hour_and_per_link(island):
    hours = fixtures.year_hours(n_hours=60, seed=8)
    run_ad = plan(island, hours, policy="adaptive")
    run_eq = plan(island, hours, policy="equal")
    for ra, re in zip(run_ad.records, run_eq.records):
        assert np.all(ra.capacity_mw >= re.capacity_mw - 1e-9)
        assert ra.curtailed_mwh <= re.curtailed_mwh + 1e-9
    assert run_ad.total_curtailed_mwh <= run_eq.total_curtailed_mwh


def test_termination_bound(island):
    hour = hour3_hour()
    rec = plan_hour(island, hour, policy="equal")
    bound = int(np.ceil(hour.offered_mw.max() / 50.0)) * island.n
    assert rec.iterations <= bound


def test_policy_validation(island):
    hour = hour3_hour()
    with pytest.raises(ScenarioError):
        plan_hour(island, hour, policy="magic")
    with pytest.raises(ScenarioError):
        plan_hour(island, hour, policy="equal", step_mw=0.0)


def test_adaptive_hour_through_milp_backend(island):
    hour = hour3_hour()
    rec = plan_hour(island, hour, policy="adaptive", backend="bnb")
    scen = market._scenario_with_flows(island, rec.flow_mw / island.base.s_base_mva)
    assert is_secure(DroopAssignment(rec.x), scen) and rec.iterations == 0
    assert rec.droop_status == "optimal"
    # gains land on the digit grid
    assert np.allclose(np.round(rec.x / 1e-3) * 1e-3, rec.x)


def test_offered_capacity_above_usable_rating_rejected(island):
    hour = make_hour([1800.0] * 6, wind=5000.0)  # above rating * p_max = 1757.5
    with pytest.raises(ScenarioError):
        plan_hour(island, hour, policy="equal")


def test_equal_policy_loses_full_capacity_hours_adaptive_keeps_them(island):
    hour = hour3_hour()
    run_eq = plan(island, [hour], policy="equal")
    run_ad = plan(island, [hour], policy="adaptive")
    c_eq = duration_curves(run_eq)
    c_ad = duration_curves(run_ad)
    assert c_eq.hours_at_full["UK"] == 0  # the loaded link lost capacity
    assert all(c_ad.hours_at_full[cid] == 1 for cid in c_ad.link_ids)


# ---------------------------------------------------------------------------
# duration curves
# ---------------------------------------------------------------------------


def test_duration_curves_flat_when_never_reduced(island):
    hours = [make_hour([800.0] * 6, wind=1000.0, hour=h) for h in range(5)]
    run = plan(island, hours, policy="adaptive")
    curves = duration_curves(run)
    for cid in curves.link_ids:
        assert np.all(curves.capacity_sorted[cid] == 800.0)
        assert curves.hours_at_full[cid] == 5
        assert np.all(np.diff(curves.flow_sorted[cid]) <= 1e-12)


def test_duration_curves_sorted_descending(island):
    hours = fixtures.year_hours(n_hours=30, seed=12)
    run = plan(island, hours, policy="equal")
    curves = duration_curves(run)
    for cid in curves.link_ids:
        assert np.all(np.diff(curves.capacity_sorted[cid]) <= 1e-12)
    assert curves.total_curtailed_mwh == pytest.approx(run.total_curtailed_mwh)
