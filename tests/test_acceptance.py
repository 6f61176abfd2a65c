"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with the
measured quantities when it succeeds.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from droopkit import fixtures
from droopkit.cli import grid_to_json, hours_to_csv, main
from droopkit.core import (
    Converter,
    DroopAssignment,
    GridScenario,
    NetworkGraph,
    SystemBase,
)
from droopkit.droop_opt import DroopProblem, solve_exact_oracle, solve_problem
from droopkit.dynamics import (
    ConverterOutage,
    WindStep,
    assemble_model,
    equal_gain_h2,
    h2_decomposition_check,
    h2_norm,
    reduce_grounded,
    simulate,
)
from droopkit.market import plan, plan_hour
from droopkit.security import post_fault_flows, screen_all_contingencies, ssfd
from tests.conftest import scenario_with_flows

S_BASE = 1850.0
UK_PU = 1740.0 / S_BASE


def _passed(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def six_link_island(others_mw=925.0):
    flows = [1740.0] + [others_mw] * 5
    return fixtures.island_scenario(p_ref_mw=flows)


# ---------------------------------------------------------------------------


def test_c1_steady_state_sharing():
    scen = six_link_island()
    eq = DroopAssignment.equal(600.0, 6)

    def closed_forms():
        return ssfd(eq, scen, "UK"), post_fault_flows(eq, scen, "UK")

    dev, flows = closed_forms()
    assert abs(dev - UK_PU / 500.0) <= 1e-9
    assert abs(dev - 1.8810810810810812e-3) <= 1e-9
    assert abs(dev * 50.0 - 0.09405405405405406) <= 1e-9 * 50.0
    pickup_mw = (flows - scen.p_ref[1:]) * S_BASE
    assert np.all(np.abs(pickup_mw - 348.0) <= 1e-9 * S_BASE)

    runtime = min(_timed(closed_forms) for _ in range(5))
    assert runtime < 1e-3
    _passed(1, f"ssfd {dev:.6e} pu ({dev * 50:.5f} Hz), +348 MW each, {runtime * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_c2_optimizer_equivalence():
    rng = np.random.default_rng(4242)
    feasible = 0
    worst_gap_ratio = 0.0
    t_oracle_max = 0.0
    t_bnb_max = 0.0
    while feasible < 100:
        n = int(rng.integers(2, 7))
        p = rng.uniform(-0.3, 0.92, size=n)
        prob = DroopProblem(alpha=600.0, x_min=np.full(n, 10.0), p_ref=p,
                            p_max=np.full(n, 0.95), psi=-3)
        t0 = time.perf_counter()
        oracle = solve_exact_oracle(prob)
        t_or = time.perf_counter() - t0
        if oracle.status != "optimal":
            continue
        feasible += 1
        if t_or >= 0.010:
            t_or = min(_timed(lambda: solve_exact_oracle(prob)) for _ in range(3))
        assert t_or < 0.010, f"oracle took {t_or * 1e3:.1f} ms"
        t_oracle_max = max(t_oracle_max, t_or)

        t0 = time.perf_counter()
        milp = solve_problem(prob, backend="bnb")
        t_bnb = time.perf_counter() - t0
        assert t_bnb < 10.0, f"built-in MILP took {t_bnb:.1f} s"
        t_bnb_max = max(t_bnb_max, t_bnb)
        assert milp.status == "optimal"
        max_p = float(np.max(np.abs(p)))
        tol = n * n * 1e-3 * max_p
        assert milp.objective >= oracle.objective - 1e-6
        assert milp.objective - oracle.objective <= tol
        worst_gap_ratio = max(worst_gap_ratio, (milp.objective - oracle.objective) / tol)
        assert milp.residual <= 1e-2 * max_p

    analytic = DroopProblem(alpha=300.0, x_min=np.full(3, 10.0),
                            p_ref=np.array([0.9, 0.5, 0.1]), p_max=np.full(3, 0.95), psi=-3)
    x_ref = np.array([300.0 / 19.0, 142.10526315789474, 142.10526315789474])
    x_oracle = solve_exact_oracle(analytic).assignment.x
    assert np.max(np.abs(x_oracle - x_ref)) <= 1e-3
    x_milp = solve_problem(analytic, backend="bnb").assignment.x
    assert np.max(np.abs(x_milp - x_ref)) <= 1e-1
    _passed(2, f"100 instances, worst gap at {worst_gap_ratio:.2f} of tolerance, "
               f"oracle <= {t_oracle_max * 1e3:.1f} ms, MILP <= {t_bnb_max:.2f} s")


# ---------------------------------------------------------------------------


def test_c3_trivial_optimum():
    prob = DroopProblem(alpha=600.0, x_min=np.full(6, 10.0),
                        p_ref=np.zeros(6), p_max=np.full(6, 0.95), psi=-3)
    for backend in ("oracle", "bnb"):
        sol = solve_problem(prob, backend=backend)
        assert sol.status == "optimal"
        assert np.all(sol.assignment.x == 100.0)
        assert sol.objective == 0.0
    _passed(3, "zero loading gives exactly x = alpha/n with objective 0 on both paths")


# ---------------------------------------------------------------------------


def _graphs(n, rng):
    base = SystemBase(100.0)
    conv = tuple(Converter(f"c{i}", 100.0, 0.0) for i in range(n))
    nodes = tuple(f"c{i}" for i in range(n))
    star = NetworkGraph(nodes=nodes, edges=tuple((f"c{i}", "c0", 1.0) for i in range(1, n)))
    ring = NetworkGraph(
        nodes=nodes,
        edges=tuple((f"c{i}", f"c{(i + 1) % n}", float(rng.uniform(0.5, 4.0))) for i in range(n)),
    )
    chords = [(f"c{i}", f"c{i + 1}", float(rng.uniform(0.5, 4.0))) for i in range(n - 1)]
    for _ in range(n // 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            chords.append((f"c{i}", f"c{j}", float(rng.uniform(0.5, 4.0))))
    rnd = NetworkGraph(nodes=nodes, edges=tuple(chords))
    return [GridScenario(base, conv, (), g) for g in (star, ring, rnd)]


def test_c4_h2_closed_forms():
    rng = np.random.default_rng(99)
    checked = 0
    for n in range(2, 11):
        scens = _graphs(n, rng)
        for k in (0.005, 0.01, 0.05):
            for tau in (0.01, 0.02, 0.1):
                expected = equal_gain_h2(n, k, tau)
                for scen in scens:
                    asn = DroopAssignment.equal(n / k, n)
                    red = reduce_grounded(assemble_model(scen, asn, tau))
                    val = h2_norm(red)
                    assert abs(val - expected) <= 1e-8 * expected
                    checked += 1

    # attached-node subsystems and the decomposition identity
    model = assemble_model(fixtures.island_scenario(), DroopAssignment.equal(600.0, 6), 0.02)
    for k_m in (0.005, 0.02):
        dec = h2_decomposition_check(model, k_m, k_m)
        assert dec.m1 == pytest.approx(k_m**2 / 0.04, rel=1e-10)
    dec = h2_decomposition_check(model, 0.013, 0.004, b_m1=2.5, b_m2=0.7)
    assert abs(dec.full - dec.parts) <= 1e-8 * dec.full

    sigma, tau = 0.02, 0.02
    sweep = np.linspace(0.002, sigma - 0.002, 33)
    eps = np.array([
        2.0 * tau * (h2_decomposition_check(model, float(k1), float(sigma - k1)).m1
                     + h2_decomposition_check(model, float(k1), float(sigma - k1)).m2)
        for k1 in sweep
    ])
    assert np.argmin(eps) == len(sweep) // 2
    assert eps.min() == pytest.approx(sigma**2 / 2.0, rel=1e-8)
    _passed(4, f"{checked} Lyapunov-vs-closed-form checks within 1e-8; "
               f"decomposition exact; sweep minimum at equal gains = sigma^2/2")


# ---------------------------------------------------------------------------


def test_c5_ssfd_depends_only_on_stiffness():
    scen = fixtures.island_scenario()  # balanced critical-hour loading
    spread = solve_exact_oracle(
        DroopProblem(alpha=600.0, x_min=scen.x_min, p_ref=scen.p_ref, p_max=scen.p_max)
    ).assignment
    assert float(np.ptp(spread.x)) > 100.0  # genuinely unequal gains
    equal = DroopAssignment.equal(600.0, 6)
    target = (-250.0 / S_BASE) / 600.0
    step = [WindStep(time=0.5, node="WF1", delta_pu=-250.0 / S_BASE)]

    finals, peaks = {}, {}
    for name, asn in (("equal", equal), ("spread", spread)):
        traj = simulate(assemble_model(scen, asn, 0.02), step, dt=1e-3, t_end=300.0)
        finals[name] = traj.freq_pu[-1]
        peaks[name] = float(np.nanmax(np.abs(traj.freq_pu)))

    for name in ("equal", "spread"):
        assert np.max(np.abs(finals[name] - target)) <= 1e-9, name
    assert np.max(np.abs(finals["equal"] - finals["spread"])) <= 1e-9
    assert peaks["spread"] >= peaks["equal"] - 1e-12
    _passed(5, f"both settle at {target:.6e} pu; transient peak spread "
               f"{peaks['spread']:.3e} >= equal {peaks['equal']:.3e}")


# ---------------------------------------------------------------------------


def test_c6_ode_matches_algebra():
    scen = fixtures.island_scenario()
    equal = DroopAssignment.equal(600.0, 6)
    worst = 0.0
    for conv in scen.converters:
        traj = simulate(
            assemble_model(scen, equal, 0.02),
            [ConverterOutage(time=0.5, converter_id=conv.id)],
            dt=1e-3,
            t_end=150.0,
        )
        expect = post_fault_flows(equal, scen, conv.id)
        cols = [i for i, cid in enumerate(traj.converter_ids) if cid != conv.id]
        err = float(np.max(np.abs(traj.p_pu[-1][cols] - expect)))
        assert err <= 1e-6
        worst = max(worst, err)
        cons = float(np.max(np.abs(traj.total_power() - scen.wind_total)))
        assert cons <= 1e-8

    # and once with strongly unequal gains (slowest modes)
    spread = solve_exact_oracle(
        DroopProblem(alpha=600.0, x_min=scen.x_min, p_ref=scen.p_ref, p_max=scen.p_max)
    ).assignment
    traj = simulate(
        assemble_model(scen, spread, 0.02),
        [ConverterOutage(time=0.5, converter_id="UK")],
        dt=2e-3,
        t_end=500.0,
    )
    expect = post_fault_flows(spread, scen, "UK")
    cols = [i for i, cid in enumerate(traj.converter_ids) if cid != "UK"]
    assert np.max(np.abs(traj.p_pu[-1][cols] - expect)) <= 1e-6
    assert np.max(np.abs(traj.total_power() - scen.wind_total)) <= 1e-8
    _passed(6, f"all outage steady states within 1e-6 pu (worst equal-gain err {worst:.1e}); "
               "power conserved to 1e-8 at every sample")


# ---------------------------------------------------------------------------


def test_c7_capacity_loop_and_year_properties():
    island = fixtures.island_scenario()
    equal = DroopAssignment.equal(600.0, 6)

    reports = screen_all_contingencies(equal, island)
    violated = {cid for rep in reports for cid, _ in rep.violations}
    assert len(violated) >= 1

    adaptive = solve_exact_oracle(
        DroopProblem(alpha=600.0, x_min=island.x_min, p_ref=island.p_ref, p_max=island.p_max)
    )
    assert adaptive.status == "optimal"
    assert all(r.secure for r in screen_all_contingencies(adaptive.assignment, island))

    offered = np.array(fixtures.HOUR3_FLOWS_MW)
    hour3 = fixtures.year_hours(n_hours=1, seed=0)[0]
    hour3 = type(hour3)(
        hour=3, wind_mw=float(offered.sum()), link_ids=fixtures.COUNTRIES,
        offered_mw=offered, bid_fixture="diurnal",
    )
    rec_eq = plan_hour(island, hour3, policy="equal")
    rec_ad = plan_hour(island, hour3, policy="adaptive")
    assert rec_eq.iterations >= 1 and rec_eq.reduced_mw.max() >= 50.0
    assert rec_ad.iterations == 0 and rec_ad.reduced_mw.sum() == 0.0

    hours = fixtures.year_hours(n_hours=8760, seed=20300)
    t0 = time.perf_counter()
    run_ad = plan(island, hours, policy="adaptive")
    t_ad = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_eq = plan(island, hours, policy="equal")
    t_eq = time.perf_counter() - t0
    assert t_ad < 300.0 and t_eq < 300.0

    # independent re-screen of every final hour state, both policies
    for run in (run_ad, run_eq):
        for rec in run.records:
            final = scenario_with_flows(island, rec.flow_mw / S_BASE)
            reports = screen_all_contingencies(DroopAssignment(rec.x), final)
            assert all(r.secure for r in reports), rec.hour
    for ra, re in zip(run_ad.records, run_eq.records):
        assert np.all(ra.capacity_mw >= re.capacity_mw - 1e-9)
        assert ra.curtailed_mwh <= re.curtailed_mwh + 1e-9
    assert run_ad.total_curtailed_mwh <= run_eq.total_curtailed_mwh
    _passed(7, f"hour 3: equal reduces ({int(rec_eq.reduced_mw.max())} MW), adaptive does not; "
               f"8760 h in {t_ad:.0f}s/{t_eq:.0f}s, every final state re-screened secure; "
               f"curtailment {run_ad.total_curtailed_mwh:.0f} <= "
               f"{run_eq.total_curtailed_mwh:.0f} MWh hour-by-hour and per link")


# ---------------------------------------------------------------------------


def test_c8_cli_determinism(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(grid_to_json(fixtures.island_scenario()), indent=2) + "\n")
    hours = tmp_path / "hours.csv"
    hours.write_text(hours_to_csv(fixtures.year_hours(n_hours=24, seed=5)))

    def run_all(outdir: Path):
        outdir.mkdir()
        assert main(["solve-droops", "--grid", str(grid), "--backend", "oracle",
                     "--out", str(outdir / "droops.json")]) == 0
        assert main(["solve-droops", "--grid", str(grid), "--backend", "bnb",
                     "--out", str(outdir / "droops_bnb.json")]) == 0
        assert main(["check-n1", "--grid", str(grid), "--droops",
                     str(outdir / "droops.json"), "--out", str(outdir / "n1.csv")]) == 0
        assert main(["h2", "--grid", str(grid), "--droops", str(outdir / "droops.json"),
                     "--out", str(outdir / "h2.json")]) == 0
        assert main(["simulate", "--grid", str(grid), "--droops", str(outdir / "droops.json"),
                     "--t-end", "1.0", "--event", "outage:UK@0.2",
                     "--out", str(outdir / "traj.csv")]) == 0
        assert main(["market-loop", "--grid", str(grid), "--hours", str(hours),
                     "--policy", "adaptive", "--out", str(outdir / "mkt")]) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    files = ["droops.json", "droops_bnb.json", "n1.csv", "h2.json", "traj.csv",
             "mkt/summary.json", "mkt/capacities.csv"]
    for f in files:
        assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False), f
    _passed(8, f"{len(files)} output files byte-identical across repeated runs")
