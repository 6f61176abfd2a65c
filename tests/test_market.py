import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droopkit import fixtures, market
from droopkit.core import DroopAssignment, ScenarioError
from droopkit.droop_opt import (DroopSolution, SolverError, StiffnessError, build_exact_problem,
                               equal_gains_test)
from droopkit.market import (
    MAX_STEPS_PER_LINK,
    HourRecord,
    HourScenario,
    clear_market,
    duration_curves,
    plan,
    plan_hour,
)
from droopkit.security import (VIOLATION_TOL, is_secure, post_fault_excess,
                               screen_all_contingencies)
from tests.conftest import scenario_with_flows


def make_hour(offered, wind, hour=0, fixture="flat"):
    offered = np.asarray(offered, dtype=float)
    links = fixtures.COUNTRIES[: offered.size]
    return HourScenario(hour=hour, wind_mw=float(wind), link_ids=links, offered_mw=offered,
                        bid_fixture=fixture)


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("wind, offered, name", [
    (math.nan, [800.0] * 6, "wind_mw"),
    (math.inf, [800.0] * 6, "wind_mw"),
    (-1.0, [800.0] * 6, "wind_mw"),
    (1000.0, [800.0, math.nan, 800.0], "offered_mw"),
    (1000.0, [800.0, math.inf], "offered_mw"),
    (1000.0, [-50.0, 800.0], "offered_mw"),
])
def test_hour_rejects_non_finite_or_negative_wind_and_capacity(wind, offered, name):
    with pytest.raises(ScenarioError, match=f"^hour 0: {name} must be finite and non-negative$"):
        make_hour(offered, wind)


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
    hour = make_hour([500.0, 500.0], wind=400.0)
    flows = clear_market(hour)
    assert flows[0] == pytest.approx(300.0) and flows[1] == pytest.approx(100.0)


def test_wind_budget_shared_by_price_order():
    # at hour 22 the diurnal NL price (54.18) tops DE's (54.01), so NL fills first
    hour = make_hour([400.0, 400.0, 400.0], wind=700.0, hour=22, fixture="diurnal")
    assert hour.merit_order[0][:3] == (0, 2, 1)
    flows = clear_market(hour)
    assert flows.tolist() == pytest.approx([240.0, 220.0, 240.0])


def test_multi_segment_curve_fills_in_price_order():
    hour = make_hour([400.0, 300.0], wind=500.0)
    flows = clear_market(hour)
    # both 0.6 segments first (240 + 180), then 80 of UK's 0.4 segment
    assert flows[0] == pytest.approx(320.0) and flows[1] == pytest.approx(180.0)


@pytest.mark.parametrize("fixture", ["x", "", "Flat"])
def test_hour_rejects_an_unknown_bid_fixture(fixture):
    with pytest.raises(ScenarioError, match=f"^hour 0: unknown bid fixture {fixture!r}$"):
        make_hour([800.0] * 6, wind=1000.0, fixture=fixture)


def _reference_merit_order(fixture, hour, link_ids, offered):
    """The merit order as each hour once built it: two bid segments per link
    (0.6 of the offer at the fixture's price, 0.4 at 0.55 times it), sorted by
    descending price, then link and segment, keeping positive prices and
    quantities."""
    base_price = {"UK": 62.0, "DE": 55.0, "NL": 52.0, "DK": 49.0, "NO": 45.0, "BE": 58.0}
    curves = []
    for j, cid in enumerate(link_ids):
        if fixture == "flat":
            price = 50.0
        else:
            base = base_price.get(cid, 50.0)
            price = base + 8.0 * math.sin(2.0 * math.pi * (hour % 24) / 24.0 + 0.4 * j)
        cap = float(offered[j])
        curves.append(((0.6 * cap, price), (0.4 * cap, 0.55 * price)))
    order = sorted([
        (-price, li, si, qty)
        for li, curve in enumerate(curves)
        for si, (qty, price) in enumerate(curve)
        if price > 0 and qty > 0
    ])
    return tuple([o[1] for o in order]), tuple([o[3] for o in order])


@st.composite
def bid_hours(draw):
    """1 to 8 links, some without a base price, with offers of 0, subnormals
    and up to 1e300, at hours on both sides of 0."""
    links = tuple(draw(st.lists(st.sampled_from(fixtures.COUNTRIES + ("XX", "A", "B", "C")),
                                min_size=1, max_size=8, unique=True)))
    offer = (st.sampled_from([0.0, 5e-324, 1e-310, 1e300, 1700.0])
             | st.floats(0.0, 1e300, allow_subnormal=True))
    offered = draw(st.lists(offer, min_size=len(links), max_size=len(links)))
    return (draw(st.sampled_from(["flat", "diurnal"])), draw(st.integers(-10**6, 10**6)),
            links, offered)


@given(bid_hours())
@settings(max_examples=400, deadline=None)
def test_merit_order_matches_the_bid_curve_reference_bit_for_bit(bid_hour):
    fixture, h, links, offered = bid_hour
    hour = HourScenario(hour=h, wind_mw=0.0, link_ids=links, offered_mw=offered,
                        bid_fixture=fixture)
    got_links, got_qty = hour.merit_order
    want_links, want_qty = _reference_merit_order(fixture, h, links, offered)
    assert got_links == want_links
    assert [q.hex() for q in got_qty] == [q.hex() for q in want_qty]


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
            final_scen = scenario_with_flows(island, rec.flow_mw / island.base.s_base_mva)
            assert is_secure(DroopAssignment(rec.x), final_scen)


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
    scen = scenario_with_flows(island, rec.flow_mw / island.base.s_base_mva)
    assert is_secure(DroopAssignment(rec.x), scen) and rec.iterations == 0
    assert rec.droop_status == "optimal"
    # gains land on the digit grid
    assert np.allclose(np.round(rec.x / 1e-3) * 1e-3, rec.x)


def test_offered_capacity_above_usable_rating_rejected(island):
    hour = make_hour([1800.0] * 6, wind=5000.0)  # above rating * p_max = 1757.5
    with pytest.raises(ScenarioError):
        plan_hour(island, hour, policy="equal")


def _per_hour_error(island, hours, **kwargs):
    """The error the loop of ``plan_hour`` calls over ``hours`` in hour order raises."""
    with pytest.raises(Exception) as info:
        for hour in sorted(hours, key=lambda h: h.hour):
            plan_hour(island, hour, **kwargs)
    return info.value


def _wrong_links_hour(hour):
    return HourScenario(hour=hour, wind_mw=1000.0, link_ids=fixtures.COUNTRIES[::-1],
                        offered_mw=np.full(6, 800.0), bid_fixture="flat")


_GOOD = make_hour([800.0] * 6, wind=1000.0, hour=0)
_ABOVE_RATING = "offered capacity exceeds a converter's usable rating"
_WRONG_LINKS = "hour links do not match scenario converters"
_BELOW_X_MIN = "equal policy violates the gain lower bounds"
_AT_X_MIN_SUM = StiffnessError("stiffness target unreachable: alpha=60 does not exceed sum of "
                                "gain lower bounds 60")
_POSITIVE_PSI = "digit places must satisfy psi <= 0 <= eta"
_MAGIC_BACKEND = ValueError("unknown backend 'magic' (expected 'oracle', 'bnb' or 'highs')")
_NO_GAINS = ("hour 0: the bnb backend finds no gains even at zero flows: alpha=600.5 is not "
             "representable on the 10^0 grid")
_LATER_ABOVE_RATING = [_GOOD, make_hour([1800.0] * 6, 5000.0, hour=5)]


# list order differs from hour order: the first bad hour in hour order decides.
# ``options`` is alpha or a dict of keyword options, and ``message`` the message
# of a ScenarioError, or another error, or one of these per policy
@pytest.mark.parametrize("hours, options, message", [
    ([_GOOD, make_hour([1800.0] * 6, 5000.0, hour=5), make_hour([1800.0] * 6, 5000.0, hour=3)],
     600.0, f"hour 3: {_ABOVE_RATING}"),
    ([_GOOD, _wrong_links_hour(5), make_hour([1800.0] * 6, 5000.0, hour=3)],
     600.0, f"hour 3: {_ABOVE_RATING}"),
    ([_GOOD, make_hour([1800.0] * 6, 5000.0, hour=5), _wrong_links_hour(3)],
     600.0, _WRONG_LINKS),
    # the gain bound is checked after the first hour's own checks, before the second hour's
    ([_GOOD, _wrong_links_hour(5)], 30.0, _BELOW_X_MIN),
    ([make_hour([1800.0] * 6, 5000.0, hour=4), _GOOD], 30.0, _BELOW_X_MIN),
    ([make_hour([1800.0] * 6, 5000.0, hour=4), _wrong_links_hour(7)], 30.0,
     f"hour 4: {_ABOVE_RATING}"),
    # under "adaptive" the first hour's solve raises after that hour's checks and
    # the gain bound, before the next hour's checks; "equal" never solves
    (_LATER_ABOVE_RATING, {"alpha": 60.0},
     {"equal": f"hour 5: {_ABOVE_RATING}", "adaptive": _AT_X_MIN_SUM}),
    ([_GOOD, _wrong_links_hour(5)], {"psi": 1},
     {"equal": _WRONG_LINKS, "adaptive": _POSITIVE_PSI}),
    (_LATER_ABOVE_RATING, {"backend": "magic"},
     {"equal": f"hour 5: {_ABOVE_RATING}", "adaptive": _MAGIC_BACKEND}),
    ([make_hour([800.0] * 6, 1000.0, hour=9), make_hour([1800.0] * 6, 5000.0, hour=4)],
     {"backend": "magic"}, f"hour 4: {_ABOVE_RATING}"),
    # alpha off the 10^0 grid: B&B finds no gains at any flows, an error only a solve raises
    ([fixtures.year_hours(n_hours=1, seed=7)[0], make_hour([1800.0] * 6, 5000.0, hour=5)],
     {"backend": "bnb", "alpha": 600.5, "psi": 0},
     {"equal": f"hour 5: {_ABOVE_RATING}", "adaptive": _NO_GAINS}),
])
@pytest.mark.parametrize("policy", ["equal", "adaptive"])
def test_plan_raises_the_per_hour_loops_error_for_the_first_bad_hour(island, hours, options,
                                                                     message, policy):
    options = options if isinstance(options, dict) else {"alpha": options}
    message = message[policy] if isinstance(message, dict) else message
    want = message if isinstance(message, Exception) else ScenarioError(message)
    got = _per_hour_error(island, hours, policy=policy, **options)
    assert (type(got), str(got)) == (type(want), str(want))
    with pytest.raises(Exception) as info:
        plan(island, hours, policy=policy, **options)
    assert (type(info.value), str(info.value)) == (type(want), str(want))


def test_plan_raises_an_earlier_hours_solve_error_before_a_later_hours_check_error(
        island, monkeypatch):
    # hour 1 fails only in its solve, hour 5 in its checks: the per-hour loop
    # raises hour 1's error, and so must plan, which checks every hour first
    real = market.solve_problem

    def solve(problem, **kwargs):
        if problem.p_ref.sum() * island.base.s_base_mva > 800.0:  # hour 1 exports 1000 MW
            raise SolverError("node limit")
        return real(problem, **kwargs)

    monkeypatch.setattr(market, "solve_problem", solve)
    hours = [make_hour([1800.0] * 6, 5000.0, hour=5), make_hour([800.0] * 6, 1000.0, hour=1),
             make_hour([100.0] * 6, 600.0, hour=0)]
    for backend in ("oracle", "bnb"):
        assert repr(_per_hour_error(island, hours, backend=backend)) == "SolverError('node limit')"
        with pytest.raises(SolverError, match="^node limit$"):
            plan(island, hours, backend=backend)


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


# ---------------------------------------------------------------------------
# planning on set-point arrays against the scenario-rebuilding loop
# ---------------------------------------------------------------------------


def _reference_plan_hour(template, hour, policy="adaptive", step_mw=50.0, alpha=600.0,
                         backend="oracle", psi=-3):
    """The reduction loop written on rebuilt scenarios and contingency reports.

    Each step rebuilds a scenario at the cleared flows, screens it with
    ``screen_all_contingencies`` and maps the violated ids back to indices.
    The solver is looked up on ``market`` at call time, as ``plan_hour`` does.
    """
    equal = DroopAssignment.equal(alpha, template.n)
    caps = np.array(hour.offered_mw, dtype=float)
    s_base = template.base.s_base_mva
    iterations = 0
    while True:
        flows = clear_market(hour, caps)
        scen = scenario_with_flows(template, flows / s_base)
        status = "equal"
        assignment = equal
        if policy == "adaptive":
            sol = market.solve_problem(build_exact_problem(scen, alpha, psi), backend=backend)
            status = sol.status
            assignment = sol.assignment if sol.status == "optimal" else None
        reports = screen_all_contingencies(equal if assignment is None else assignment, scen)
        violated = sorted({cid for rep in reports for cid, _ in rep.violations})
        if assignment is None and not violated:
            violated = [template.ids[int(np.argmax(np.abs(flows)))]]
        if not violated:
            return HourRecord(
                hour=hour.hour, link_ids=template.ids, offered_mw=np.array(hour.offered_mw),
                capacity_mw=caps, flow_mw=flows, reduced_mw=np.array(hour.offered_mw) - caps,
                iterations=iterations, curtailed_mwh=float(hour.wind_mw - flows.sum()),
                droop_status=status, x=np.asarray(assignment.x).copy(),
            )
        iterations += 1
        reduced_any = False
        for cid in violated:
            j = template.converter_index(cid)
            if caps[j] > 0:
                caps[j] = max(0.0, caps[j] - step_mw)
                reduced_any = True
        if not reduced_any:
            for j in range(template.n):
                if caps[j] > 0:
                    caps[j] = max(0.0, caps[j] - step_mw)


def _record_bytes(rec):
    return (
        rec.hour, rec.link_ids, rec.iterations, rec.droop_status,
        repr(rec.curtailed_mwh),
        *(np.asarray(a).tobytes() for a in (rec.offered_mw, rec.capacity_mw, rec.flow_mw,
                                            rec.reduced_mw, rec.x)),
    )


_usable_mw = fixtures.RATING_MVA * 0.95


@st.composite
def market_hours(draw, heavy=False):
    """Hours on the island's links: zero, partial and full offers, zero or high
    wind; ``heavy`` hours offer at least 950 MW per link against at least 6 GW."""
    offers = [950.0, 1700.0, _usable_mw] if heavy else [0.0, 50.0, 400.0, 950.0, 1700.0]
    offered = np.array(draw(st.lists(
        st.sampled_from(offers) | st.floats(offers[0], _usable_mw),
        min_size=6, max_size=6,
    )))
    wind = draw(st.sampled_from([0.0, 9000.0]) | st.floats(6000.0 if heavy else 0.0, 11_000.0))
    h = draw(st.integers(0, 23))
    fixture = draw(st.sampled_from(["diurnal", "flat"]))
    return HourScenario(hour=h, wind_mw=wind, link_ids=fixtures.COUNTRIES, offered_mw=offered,
                        bid_fixture=fixture)


@given(market_hours() | market_hours(heavy=True), st.sampled_from(["equal", "adaptive"]),
       st.sampled_from([50.0, 137.5]))
@settings(max_examples=120, deadline=None)
def test_plan_hour_matches_scenario_rebuilding_reference(hour, policy, step):
    island = fixtures.island_scenario()
    got = plan_hour(island, hour, policy=policy, step_mw=step)
    want = _reference_plan_hour(island, hour, policy=policy, step_mw=step)
    assert _record_bytes(got) == _record_bytes(want)


# at alpha = 100 the six gains alpha/n sum to other than alpha: plan_hour's
# screen takes that sum, the oracle's equal-gain test alpha itself
@given(st.lists(market_hours() | market_hours(heavy=True), max_size=4),
       st.sampled_from(["equal", "adaptive"]), st.sampled_from([50.0, 137.5]),
       st.sampled_from([600.0, 100.0]))
@settings(max_examples=50, deadline=None)
def test_plan_matches_the_per_hour_reference(hours, policy, step, alpha):
    island = fixtures.island_scenario()
    got = plan(island, hours, policy=policy, step_mw=step, alpha=alpha).records
    want = [_reference_plan_hour(island, hour, policy=policy, step_mw=step, alpha=alpha)
            for hour in sorted(hours, key=lambda h: h.hour)]
    assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in want]


@pytest.mark.parametrize("policy", ["equal", "adaptive"])
@pytest.mark.parametrize("step", [50.0, 137.5])
def test_plan_over_secure_and_insecure_first_clearings_matches_the_reference(policy, step):
    island = fixtures.island_scenario()
    hours = fixtures.year_hours(n_hours=48, seed=20300)[::-1]
    got = plan(island, hours, policy=policy, step_mw=step).records
    want = [_reference_plan_hour(island, hour, policy=policy, step_mw=step)
            for hour in sorted(hours, key=lambda h: h.hour)]
    assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in want]
    # under equal gains an hour needs a reduction iff its first clearing is insecure
    iterations = [r.iterations for r in plan(island, hours, policy="equal").records]
    assert 0 < iterations.count(0) < len(iterations)


# year hours whose B&B gains are unequal; 78 and 173 need 6 and 7 reductions.
# Not drawn at random: one B&B solve on some random heavy hours runs past 30 s.
@pytest.mark.parametrize("h", [1, 24, 78, 173])
def test_plan_hour_matches_reference_through_bnb(h):
    island = fixtures.island_scenario()
    hour = fixtures.year_hours(n_hours=h + 1, seed=20300)[h]
    got = plan_hour(island, hour, backend="bnb")
    want = _reference_plan_hour(island, hour, backend="bnb")
    assert _record_bytes(got) == _record_bytes(want)


def test_plan_through_bnb_never_takes_the_equal_gains_without_a_solve():
    # at alpha = 100 B&B returns unequal gains on some hours whose equal gains
    # are secure (hours 0 and 8 here; plan solves hour 0 in any case), so only the
    # oracle may skip the solve
    island = fixtures.island_scenario()
    hours = fixtures.year_hours(n_hours=12, seed=20300)
    got = plan(island, hours, backend="bnb", alpha=100.0).records
    want = [plan_hour(island, hour, backend="bnb", alpha=100.0) for hour in hours]
    assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in want]


def test_plan_solves_an_hour_whose_equal_gains_fail_only_the_oracles_test(island, monkeypatch):
    # alpha = 100: the gains alpha/n sum to 100.00000000000001.  On this hour the
    # DE outage leaves UK within tolerance at that sum but not at alpha itself,
    # so plan_hour's screen passes and the oracle still solves the LP
    de = 1287.5000092499993
    hour = make_hour([1500.0, de, 100.0, 100.0, 100.0, 100.0], wind=1500.0 + de + 400.0, hour=1)
    x = np.full(6, 100.0 / 6)
    p_ref = clear_market(hour) / island.base.s_base_mva
    assert not (post_fault_excess(x, p_ref, island.p_max, float(x.sum())) > VIOLATION_TOL).any()
    assert not equal_gains_test(100.0, island.x_min, p_ref, island.p_max)[1]
    routed, real = [], market.plan_hour
    monkeypatch.setattr(market, "plan_hour", lambda *a, **k: routed.append(a[1]) or real(*a, **k))
    got = plan(island, [hour, _GOOD], alpha=100.0).records  # the first hour always goes through
    assert routed == [_GOOD, hour]
    assert _record_bytes(got[1]) == _record_bytes(_reference_plan_hour(island, hour, alpha=100.0))


def _no_gains_above(limit_pu, seen):
    """``solve_problem`` that finds no gains while the cleared export exceeds ``limit_pu``."""
    real = market.solve_problem

    def solve(problem, backend="oracle"):
        if float(problem.p_ref.sum()) <= limit_pu:
            return real(problem, backend=backend)
        equal = DroopAssignment.equal(problem.alpha, problem.n)
        seen.append(is_secure(equal, scenario_with_flows(fixtures.island_scenario(),
                                                         problem.p_ref)))
        return DroopSolution("infeasible", None, None, 0.0, note="stub")

    return solve


@given(market_hours() | market_hours(heavy=True), st.floats(0.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_plan_hour_matches_reference_through_the_fallbacks(hour, limit_pu):
    island = fixtures.island_scenario()
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(market, "solve_problem", _no_gains_above(limit_pu, seen))
        got = plan_hour(island, hour)
        want = _reference_plan_hour(island, hour)
    assert _record_bytes(got) == _record_bytes(want)


def test_fallbacks_take_both_the_equal_screen_and_the_largest_flow(island, monkeypatch):
    # a full hour: the equal gains fail first, then hold while the stub still
    # finds no gains, so both the equal screen and the largest-flow withdrawal run
    hour = fixtures.year_hours(n_hours=2, seed=7)[1]
    seen = []
    monkeypatch.setattr(market, "solve_problem", _no_gains_above(2.0, seen))
    got = plan_hour(island, hour)
    assert False in seen and True in seen
    assert got.droop_status == "optimal" and got.flow_mw.sum() / 1850.0 <= 2.0
    assert _record_bytes(got) == _record_bytes(_reference_plan_hour(island, hour))


def test_plan_hour_raises_when_the_backend_finds_no_gains_at_zero_flow(island):
    # alpha = 600.5 is off the 10^0 digit grid: B&B is infeasible at every flow
    hour = fixtures.year_hours(n_hours=1, seed=7)[0]
    with pytest.raises(ScenarioError, match="hour 0: the bnb backend finds no gains even at "
                                            "zero flows: alpha=600.5 is not representable"):
        plan_hour(island, hour, backend="bnb", alpha=600.5, psi=0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -50.0])
def test_step_mw_must_be_finite_and_positive(island, step):
    hour = hour3_hour()
    with pytest.raises(ScenarioError, match=f"step_mw={step:g} must be finite and positive"):
        plan_hour(island, hour, policy="equal", step_mw=step)
    with pytest.raises(ScenarioError, match=f"step_mw={step:g} must be finite and positive"):
        plan(island, [], policy="equal", step_mw=step)


# 1757.5 MW (plus 1e-9) in steps of 1.7575e-3 MW is just over the cap, in 1.7576e-3 just under
@pytest.mark.parametrize("step", [1e-12, 1.7575e-3])
def test_step_mw_needing_more_steps_than_the_cap_is_rejected(island, step):
    hour = hour3_hour()
    message = re.escape(f"step_mw={step:g} needs up to {1757.500000001 / step:.3g} steps to "
                        f"withdraw a capacity of 1757.5 MW, more than the "
                        f"{MAX_STEPS_PER_LINK:,} a link may take")
    with pytest.raises(ScenarioError, match=message):
        plan_hour(island, hour, policy="equal", step_mw=step)
    with pytest.raises(ScenarioError, match=message):
        plan(island, [], policy="equal", step_mw=step)
    plan(island, [], policy="equal", step_mw=1.7576e-3)


# the largest usable capacity is 1757.5 MW (plus 1e-9), where floats are 2.27e-13 apart; the
# tie at half that spacing leaves a capacity with an even last bit unchanged
@pytest.mark.parametrize("step", [1e-13, 1e-300, 5e-324, math.ulp(1757.500000001) / 2])
def test_step_mw_too_small_to_reduce_a_capacity_is_rejected(island, step):
    hour = hour3_hour()
    message = f"step_mw={step:g} is too small to reduce a capacity of 1757.5 MW"
    with pytest.raises(ScenarioError, match=message):
        plan_hour(island, hour, policy="equal", step_mw=step)
    with pytest.raises(ScenarioError, match=message):
        plan(island, [], policy="equal", step_mw=step)
