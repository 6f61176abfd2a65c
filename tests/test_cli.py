import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from droopkit import droop_opt, fixtures
from droopkit.cli import (
    grid_from_json,
    grid_to_json,
    hours_from_csv,
    hours_to_csv,
    load_droops,
    load_grid,
    main,
)
from droopkit.core import Converter, GridScenario, SystemBase
from droopkit.market import plan


@pytest.fixture
def grid_file(tmp_path, island):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_to_json(island), indent=2) + "\n")
    return path


@pytest.fixture
def hours_file(tmp_path):
    hours = fixtures.year_hours(n_hours=6, seed=2)
    path = tmp_path / "hours.csv"
    path.write_text(hours_to_csv(hours))
    return path


def test_grid_json_round_trip(island):
    doc = grid_to_json(island)
    back = grid_from_json(doc)
    assert back.ids == island.ids
    assert np.allclose(back.p_ref, island.p_ref, atol=1e-12)
    assert back.network.edges == island.network.edges
    assert grid_to_json(back) == doc


def test_hours_csv_rejects_wrong_header():
    from droopkit.core import ScenarioError

    with pytest.raises(ScenarioError):
        hours_from_csv("hour,wind\n1,2\n", fixtures.COUNTRIES)
    with pytest.raises(ScenarioError):
        hours_from_csv("", fixtures.COUNTRIES)


@pytest.mark.parametrize("column", [1, 2])
def test_hours_csv_rejects_non_finite_wind_and_capacity(column):
    from droopkit.core import ScenarioError

    lines = hours_to_csv(fixtures.year_hours(n_hours=2, seed=1)).splitlines()
    cells = lines[2].split(",")
    cells[column] = "nan"
    lines[2] = ",".join(cells)
    with pytest.raises(ScenarioError, match="hour 1: wind_mw and cap_\\* must be finite"):
        hours_from_csv("\n".join(lines), fixtures.COUNTRIES)


def test_hours_csv_round_trip():
    hours = fixtures.year_hours(n_hours=4, seed=1)
    text = hours_to_csv(hours)
    back = hours_from_csv(text, fixtures.COUNTRIES)
    assert len(back) == 4
    assert back[2].wind_mw == pytest.approx(hours[2].wind_mw, rel=1e-12)
    assert np.allclose(back[0].offered_mw, hours[0].offered_mw)
    assert [h.bid_fixture for h in back] == [h.bid_fixture for h in hours]
    assert [h.merit_order for h in back] == [h.merit_order for h in hours]


def test_solve_droops_writes_solution_and_exit_zero(grid_file, tmp_path, island):
    out = tmp_path / "droops.json"
    rc = main(["solve-droops", "--grid", str(grid_file), "--alpha", "600",
               "--backend", "oracle", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"
    assert doc["alpha"] == 600.0
    assert len(doc["x"]) == 6
    assert doc["residual"] <= 1e-9
    asn = load_droops(out, island)
    assert asn.alpha == pytest.approx(600.0, abs=1e-6)


def test_solve_droops_infeasible_exit_two(tmp_path, island, capsys):
    # everyone pinned at the limit: no post-fault headroom anywhere
    doc = grid_to_json(island)
    for conv in doc["converters"]:
        conv["p_ref_mw"] = 1757.5
    doc["wind"] = [{"node": "WF1", "p_mw": 6 * 1757.5}]
    grid = tmp_path / "loaded.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "droops.json"
    for backend in ("oracle", "bnb"):
        rc = main(["solve-droops", "--grid", str(grid), "--backend", backend, "--out", str(out)])
        _assert_one_line_usage_error(rc, capsys, "droopkit: infeasible: no gains summing to "
                                     "alpha=600 keep every post-fault flow within p_max", code=2)
        assert json.loads(out.read_text())["status"] == "infeasible"


def test_solve_droops_unreachable_alpha_exit_two(grid_file, tmp_path, capsys):
    out = tmp_path / "droops.json"
    for alpha, backend, reason in (
        ("50", "oracle", "stiffness target unreachable: alpha=50 does not exceed"),
        ("600.0005", "bnb", "alpha=600.0005 is not representable on the 10^-3 grid"),
    ):
        rc = main(["solve-droops", "--grid", str(grid_file), "--alpha", alpha,
                   "--backend", backend, "--out", str(out)])
        _assert_one_line_usage_error(rc, capsys, f"droopkit: infeasible: {reason}", code=2)
        assert json.loads(out.read_text())["status"] == "infeasible"


def test_check_n1_exit_codes(grid_file, tmp_path):
    droops = tmp_path / "droops.json"
    assert main(["solve-droops", "--grid", str(grid_file), "--out", str(droops)]) == 0
    out = tmp_path / "n1.csv"
    assert main(["check-n1", "--grid", str(grid_file), "--droops", str(droops),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("outage_id,converter_id,p_pre_mw,p_post_mw,limit_mw,violation_mw,ssfd_hz")
    assert ",0," in text or ",0\n" in text  # no violations anywhere
    # equal gains on the loaded island are insecure
    out2 = tmp_path / "n1eq.csv"
    assert main(["check-n1", "--grid", str(grid_file), "--alpha", "600",
                 "--out", str(out2)]) == 3


def test_check_n1_accepts_droops_with_permuted_ids(grid_file, tmp_path, island):
    droops = tmp_path / "droops.json"
    main(["solve-droops", "--grid", str(grid_file), "--out", str(droops)])
    doc = json.loads(droops.read_text())
    order = [5, 3, 0, 1, 2, 4]
    doc["ids"] = [doc["ids"][i] for i in order]
    doc["x"] = [doc["x"][i] for i in order]
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc))
    asn = load_droops(shuffled, island)
    ref = load_droops(droops, island)
    assert np.allclose(asn.x, ref.x)


def test_h2_output_matches_closed_form_for_equal_gains(grid_file, tmp_path):
    out = tmp_path / "h2.json"
    rc = main(["h2", "--grid", str(grid_file), "--alpha", "600", "--tau", "0.02",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["equal_gain_closed_form"] == pytest.approx(5 * 0.01**2 / 0.04, rel=1e-9)
    assert doc["h2_squared"] == pytest.approx(doc["equal_gain_closed_form"], rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", ["1e-9", "1e-12", "1e-18", "1e300"])
def test_h2_at_extreme_tau_writes_the_equal_gain_closed_form(grid_file, tmp_path, capsys, tau):
    out = tmp_path / "h2.json"
    rc = main(["h2", "--grid", str(grid_file), "--alpha", "600", f"--tau={tau}",
               "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert doc["h2_squared"] == doc["equal_gain_closed_form"]


def test_simulate_outage_csv_tail_matches_algebra(grid_file, tmp_path, island, equal600):
    from droopkit.security import post_fault_flows

    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--alpha", "600",
               "--dt", "1e-3", "--t-end", "150", "--event", "outage:UK@0.5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[1].split(",")
    tail = dict(zip(header, lines[-1].split(",")))
    expect = post_fault_flows(equal600, island, "UK")
    survivors = [cid for cid in island.ids if cid != "UK"]
    for cid, val in zip(survivors, expect):
        assert float(tail[f"p_pu_{cid}"]) == pytest.approx(val, abs=1e-6)
    assert tail["p_pu_UK"] == "0"
    assert tail["freq_pu_UK"] == "nan"


def test_market_loop_outputs(grid_file, hours_file, tmp_path):
    out = tmp_path / "mkt"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--policy", "adaptive", "--out", str(out)])
    assert rc == 0
    caps = (out / "capacities.csv").read_text().strip().splitlines()
    assert caps[0] == "hour,link,capacity_mw,flow_mw,reduced_mw,secure"
    assert len(caps) == 1 + 6 * 6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policy"] == "adaptive"
    assert set(summary["hours_at_full_capacity"]) == set(fixtures.COUNTRIES)
    assert summary["hours"] == 6


def test_market_loop_capacities_rows_match_per_cell_rendering(tmp_path, island, hours_file):
    # converter ids holding "%" must come out verbatim from the per-record format string
    renamed = {"UK": "U%sK", "DE": "D%%E", "NL": "N%dL%"}
    grid_text = json.dumps(grid_to_json(island))
    hours_text = hours_file.read_text()
    for old, new in renamed.items():
        grid_text = grid_text.replace(f'"{old}"', f'"{new}"')
        hours_text = hours_text.replace(f"cap_{old},", f"cap_{new},")
    (tmp_path / "g.json").write_text(grid_text)
    (tmp_path / "h.csv").write_text(hours_text)
    out = tmp_path / "mkt"
    rc = main(["market-loop", "--grid", str(tmp_path / "g.json"), "--hours",
               str(tmp_path / "h.csv"), "--policy", "equal", "--out", str(out)])
    assert rc == 0
    scenario = load_grid(tmp_path / "g.json")
    run = plan(scenario, hours_from_csv(hours_text, scenario.ids), policy="equal")
    want = ["hour,link,capacity_mw,flow_mw,reduced_mw,secure"]
    for rec in run.records:
        for j, cid in enumerate(run.link_ids):
            want.append(f"{rec.hour},{cid},{rec.capacity_mw[j]:.12g},{rec.flow_mw[j]:.12g},"
                        f"{rec.reduced_mw[j]:.12g},true")
    assert set(renamed.values()) <= set(run.link_ids)
    assert (out / "capacities.csv").read_text() == "\n".join(want) + "\n"


def test_precision_limited_exit_four(grid_file, tmp_path, monkeypatch, capsys):
    import droopkit.cli as cli_mod
    from droopkit.droop_opt import DroopSolution

    def fake_solve_problem(problem, backend="oracle", **kw):
        return DroopSolution("precision-limited", None, None, 0.5,
                             note="exact residual 5.000e-01 exceeds precision tolerance 9.405e-03")

    monkeypatch.setattr(cli_mod, "solve_problem", fake_solve_problem)
    out = tmp_path / "droops.json"
    rc = main(["solve-droops", "--grid", str(grid_file), "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "droopkit: precision-limited: exact residual "
                                 "5.000e-01 exceeds precision tolerance", code=4)
    assert json.loads(out.read_text())["status"] == "precision-limited"


def test_usage_errors_exit_one(tmp_path):
    assert main(["solve-droops", "--grid", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.json")]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "droopkit.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "solve-droops" in proc.stdout


def _assert_one_line_usage_error(rc, capsys, *needles, code=1):
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("droopkit: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_simulate_unstable_dt_exits_one_naming_largest_stable_dt(grid_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--alpha", "600", "--dt", "0.1",
               "--t-end", "30", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "dt=0.1s is unstable", "largest stable dt is 0.0557")
    assert not out.exists()


def test_simulate_tiny_tau_names_a_positive_largest_stable_dt(grid_file, tmp_path, capsys):
    rc = main(["simulate", "--grid", str(grid_file), "--alpha", "600", "--tau=1e-30",
               "--out", str(tmp_path / "traj.csv")])
    _assert_one_line_usage_error(rc, capsys, "largest stable dt is 2.785e-30s")


def test_simulate_off_grid_event_exits_one(grid_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--alpha", "600", "--dt", "1e-3",
               "--t-end", "1", "--event", "outage:UK@0.5005", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "off the dt=0.001s step grid", "0.5s and 0.501s")
    assert not out.exists()


@pytest.mark.parametrize("events, message", [
    (["wind:NOPE:10@99.9"], "wind step at unknown wind node 'NOPE'"),
    (["outage:UK@1", "outage:UK@99.9"], "outage at t=99.9s of converter 'UK', which is already"),
    (["outage:UK"], "event 'outage:UK' needs '@<time_s>'"),
    (["trip:UK@1"], "cannot parse event 'trip:UK@1'; use outage:<id>@<t> or wind:<node>:<mw>@<t>"),
    (["outage:UK@soon"], "droopkit: event 'outage:UK@soon': time 'soon' is not a number\n"),
    (["wind:WF1:abc@0.5"], "droopkit: event 'wind:WF1:abc@0.5': megawatts 'abc' is not a number\n"),
])
def test_simulate_bad_late_event_exits_one(grid_file, tmp_path, capsys, events, message):
    out = tmp_path / "traj.csv"
    argv = ["simulate", "--grid", str(grid_file), "--dt", "1e-4", "--t-end", "100",
            "--out", str(out)]
    rc = main(argv + [f"--event={spec}" for spec in events])
    _assert_one_line_usage_error(rc, capsys, message)
    assert not out.exists()


# the guard samples the state every 256 steps and at the end of each segment between events
@pytest.mark.parametrize("t_end, t_diverged", [("1", "0.756"), ("0.6", "0.6")])
def test_simulate_diverging_state_exits_one(grid_file, tmp_path, capsys, t_end, t_diverged):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--t-end", t_end,
               "--event", "wind:WF1:1e15@0.5", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"state magnitude beyond 1e+06 at t={t_diverged}s; "
                                 "check gains and time step")
    assert not out.exists()


# each would overflow int(), exceed numpy's size limit or exhaust memory if not rejected first
@pytest.mark.parametrize("dt, t_end, steps", [("5e-324", "2", "inf"), ("1e-300", "2", "2e+300"),
                                              ("1e-9", "1", "1e+09")])
def test_simulate_too_many_steps_exits_one_naming_dt_and_t_end(grid_file, tmp_path, capsys, dt,
                                                                t_end, steps):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--dt", dt, "--t-end", t_end,
               "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"and t_end={t_end}s need {steps} steps",
                                 "more than the 10,000,000 a simulation may take")
    assert not out.exists()


def test_simulate_too_many_bytes_exits_one_naming_bytes_dt_and_t_end(grid_file, tmp_path,
                                                                      capsys):
    # 10**7 steps are within MAX_STEPS, but at n = 6 their arrays need about 2 GB
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--dt", "1e-7", "--t-end", "1",
               "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "dt=1e-07s and t_end=1s need 2,000,000,200 bytes",
                                 "more than the 268,435,456 a simulation may allocate")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, poison",
    [
        ("p_ref", lambda doc: doc["converters"][2].update(p_ref_mw=float("nan"))),
        ("s_base_mva", lambda doc: doc["base"].update(s_base_mva=float("nan"))),
        ("f_nom_hz", lambda doc: doc["base"].update(f_nom_hz=float("inf"))),
        ("rating_mva", lambda doc: doc["converters"][0].update(rating_mva=float("nan"))),
        ("x_min", lambda doc: doc["converters"][5].update(x_min=float("nan"))),
        ("wind injection", lambda doc: doc["wind"][0].update(p_mw=float("nan"))),
        ("susceptance", lambda doc: doc["network"]["edges"][0].__setitem__(2, float("inf"))),
    ],
)
def test_non_finite_grid_field_exits_one_naming_it(tmp_path, island, capsys, field, poison):
    doc = grid_to_json(island)
    poison(doc)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "n1.csv"
    rc = main(["check-n1", "--grid", str(grid), "--alpha", "600", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, field, "must be finite")
    assert not out.exists()


def test_check_n1_non_finite_gains_exit_one(grid_file, tmp_path, capsys):
    out = tmp_path / "n1.csv"
    rc = main(["check-n1", "--grid", str(grid_file), "--alpha", "nan", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "positive and finite")
    droops = tmp_path / "droops.json"
    droops.write_text(json.dumps({"x": [100.0] * 5 + [float("inf")]}))
    rc = main(["check-n1", "--grid", str(grid_file), "--droops", str(droops), "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "positive and finite")
    # a gain that swamps the others leaves alpha - x_k == 0.0: an SSFD of 0/0 on a
    # two-converter grid (which used to screen as secure) and p/0 on the island
    pair = GridScenario.with_star_network(SystemBase(100.0), (Converter("a", 100.0, 0.0),
                                          Converter("b", 100.0, 0.5)), (("w", 0.5),))
    two = tmp_path / "two.json"
    two.write_text(json.dumps(grid_to_json(pair)))
    for grid, x, first in ((two, [1e20, 1e-5], "a"), (grid_file, [1e20] + [1e-5] * 5, "UK")):
        droops.write_text(json.dumps({"x": x}))
        rc = main(["check-n1", "--grid", str(grid), "--droops", str(droops), "--out", str(out)])
        _assert_one_line_usage_error(rc, capsys, f"droopkit: converter {first}: inverse droop "
                                     "gain x=1e+20 leaves no surviving stiffness "
                                     "(alpha - x = 0.0)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-n1", "h2"])
def test_gain_with_infinite_droop_gain_exits_one_naming_it(grid_file, tmp_path, capsys, recwarn,
                                                           command):
    # 1e-320 / 6 is positive and finite, but its reciprocal overflows to inf
    out = tmp_path / "out"
    rc = main([command, "--grid", str(grid_file), "--alpha", "1e-320", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "inverse droop gain x=1.665e-321 is too small",
                                 "1/x overflows")
    droops = tmp_path / "droops.json"
    droops.write_text(json.dumps({"x": [100.0] * 5 + [1e-320]}))
    rc = main([command, "--grid", str(grid_file), "--droops", str(droops), "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "inverse droop gain x=1e-320 is too small")
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("file", ["grid", "droops"])
def test_deeply_nested_json_exits_one_naming_the_file(grid_file, tmp_path, capsys, file):
    depth = 50 * sys.getrecursionlimit()
    deep = tmp_path / "deep.json"
    deep.write_text("[" * depth + "]" * depth)
    out = tmp_path / "n1.csv"
    paths = {"grid": deep, "droops": None} if file == "grid" else {"grid": grid_file, "droops": deep}
    argv = ["check-n1", "--grid", str(paths["grid"]), "--out", str(out)]
    if paths["droops"] is not None:
        argv += ["--droops", str(paths["droops"])]
    rc = main(argv)
    _assert_one_line_usage_error(rc, capsys, f"{file} file {deep} nests too deeply to parse")
    assert not out.exists()


def test_market_loop_short_hours_row_exits_one(grid_file, hours_file, tmp_path, capsys):
    lines = hours_file.read_text().splitlines()
    cells = lines[2].split(",")
    bad_hour = ",".join(["x"] + cells[1:])
    bad_wind = ",".join(cells[:1] + ["abc"] + cells[2:])
    bad_fixture = ",".join(cells[:-1] + ["dinural"])
    out = tmp_path / "out"
    for row, needles in (
        ("1,2", ("hours CSV row '1,2'", "2 cells, expected 9")),
        (bad_hour, (f"droopkit: hours CSV row {bad_hour!r}: hour 'x' is not an integer\n",)),
        (bad_wind, (f"droopkit: hours CSV row {bad_wind!r}: wind_mw 'abc' is not a number\n",)),
        (bad_fixture, ("droopkit: hour 1: unknown bid fixture 'dinural'\n",)),
    ):
        hours_file.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
        rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
                   "--policy", "equal", "--out", str(out)])
        _assert_one_line_usage_error(rc, capsys, *needles)
    assert not out.exists()


@pytest.mark.parametrize(
    "field, poison",
    [
        ("'converters'", lambda doc: doc.update(converters=5)),
        ("'converters'", lambda doc: doc["converters"].append("UK")),
        ("'wind'", lambda doc: doc.update(wind={"node": "WF1"})),
        ("'network.edges'", lambda doc: doc["network"].update(edges=5)),
        ("'network.edges'", lambda doc: doc["network"]["edges"][0].pop()),
        ("'network.nodes'", lambda doc: doc["network"].update(nodes=5)),
    ],
)
def test_malformed_grid_json_exits_one_naming_field(tmp_path, island, capsys, field, poison):
    doc = grid_to_json(island)
    poison(doc)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "n1.csv"
    rc = main(["check-n1", "--grid", str(grid), "--alpha", "600", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"grid field {field} must be a list")
    assert not out.exists()


def _drop_node(network: dict, node: str) -> None:
    """Remove ``node`` and its edges from a grid file's network."""
    network["nodes"].remove(node)
    network["edges"] = [e for e in network["edges"] if node not in e[:2]]


@pytest.mark.parametrize(
    "message, poison",
    [
        ("grid field 'converters[0].rating_mva' must be a number",
         lambda doc: doc["converters"][0].update(rating_mva=[1])),
        ("grid file must hold a JSON object", lambda doc: [doc]),
        ("grid field 'base' must be an object", lambda doc: doc.update(base=5)),
        ("grid field 'base.s_base_mva' is missing", lambda doc: doc["base"].clear()),
        ("grid field 'network' must be an object", lambda doc: doc.update(network=[1])),
        ("grid field 'network.grounded_node' must be a node id",
         lambda doc: doc["network"].update(grounded_node=["a"])),
        ("grid field 'network.edges' must be a list of [node, node, susceptance] triples",
         lambda doc: doc["network"]["edges"][0].__setitem__(2, [1])),
        ("droopkit: converter DE: set-point exceeds limit (|0.972973| > 0.95 pu)\n",
         lambda doc: doc["converters"][1].update(p_ref_mw=1800.0)),
        ("droopkit: converter DE: set-point exceeds limit (|0.972973| > 0.95 pu); "
         "converter NO: set-point exceeds limit (|0.972973| > 0.95 pu)\n",
         lambda doc: doc["converters"][1].update(p_ref_mw=1800.0)
         or doc["converters"][4].update(p_ref_mw=1800.0)),
        ("droopkit: converter DE not present in network\n",
         lambda doc: _drop_node(doc["network"], "DE")),
        ("droopkit: wind node WF2 not present in network\n",
         lambda doc: _drop_node(doc["network"], "WF2")),
        ("droopkit: wind injection at WF1 must be non-negative\n",
         lambda doc: doc["wind"][0].update(p_mw=-10.0)),
        ("droopkit: network is disconnected\n",
         lambda doc: doc["network"]["edges"].__delitem__(-1)),
    ],
)
def test_mistyped_grid_field_exits_one_naming_it(tmp_path, island, capsys, message, poison):
    doc = grid_to_json(island)
    doc = poison(doc) or doc
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "n1.csv"
    rc = main(["check-n1", "--grid", str(grid), "--alpha", "600", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, message)
    assert not out.exists()


@pytest.mark.parametrize(
    "message, droops",
    [
        ("droops file must hold a JSON object", lambda ids: [100.0] * 6),
        ("droops field 'x' must be a list of numbers", lambda ids: {"x": 5}),
        ("droops field 'ids' must be a list of converter ids",
         lambda ids: {"x": [100.0] * 6, "ids": 5}),
        ("droops field 'ids' must be a list of converter ids",
         lambda ids: {"x": [100.0] * 6, "ids": [[ids[0]]] + ids[1:]}),
        ("droops field 'x' has 5 gains but 'ids' has 6",
         lambda ids: {"x": [100.0] * 5, "ids": ids}),
        ("holds no solution (status infeasible)", lambda ids: {"status": "infeasible", "x": None}),
        ("droops file length does not match the grid", lambda ids: {"x": [100.0] * 5}),
        ("droops file ids do not match the grid",
         lambda ids: {"x": [100.0] * 6, "ids": ids[:5] + ["XX"]}),
    ],
)
def test_mistyped_droops_field_exits_one_naming_it(grid_file, tmp_path, island, capsys,
                                                   message, droops):
    path = tmp_path / "droops.json"
    path.write_text(json.dumps(droops(list(island.ids))))
    out = tmp_path / "n1.csv"
    rc = main(["check-n1", "--grid", str(grid_file), "--droops", str(path), "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, message)
    assert not out.exists()

@pytest.mark.parametrize("command", ["h2", "simulate"])
@pytest.mark.parametrize("tau", ["inf", "nan", "-inf"])
def test_non_finite_tau_exits_one_naming_it(grid_file, tmp_path, capsys, command, tau):
    out = tmp_path / "out"
    rc = main([command, "--grid", str(grid_file), "--alpha", "600", f"--tau={tau}",
               "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"tau={tau} must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("command", ["h2", "simulate"])
def test_tau_overflowing_the_model_exits_one_naming_it(grid_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main([command, "--grid", str(grid_file), "--alpha", "600", "--tau=1e-320",
               "--out", str(out)])
    _assert_one_line_usage_error(
        rc, capsys, "tau=1e-320 is so small that the model's A or B matrix overflows")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_tau_overflowing_the_step_matrix_exits_one_naming_it(grid_file, tmp_path,
                                                                      capsys):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--grid", str(grid_file), "--alpha", "600", "--tau=1e-300",
               "--out", str(out)])
    _assert_one_line_usage_error(
        rc, capsys, "time step dt=0.001s overflows the RK4 step matrix at measurement time "
        "constant tau=1e-300s")
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
def test_solve_droops_non_finite_alpha_exits_one(grid_file, tmp_path, capsys, alpha):
    out = tmp_path / "droops.json"
    rc = main(["solve-droops", "--grid", str(grid_file), f"--alpha={alpha}", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"alpha={alpha} must be finite")
    assert not out.exists()


def test_solve_droops_alpha_overflowing_the_limit_rows_exits_one(grid_file, tmp_path, capsys):
    out = tmp_path / "droops.json"
    rc = main(["solve-droops", "--grid", str(grid_file), "--alpha=1e308", "--precision=0",
               "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "alpha=1e+308 times a post-fault limit overflows")
    assert not out.exists()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # each run overwrites
@given(alpha=st.one_of(st.floats(), st.floats(1e300, 1.8e308), st.floats(60.0, 1e4)),
       precision=st.one_of(st.integers(-400, 400), st.integers()))
@example(alpha=0.0, precision=0)
@example(alpha=-600.0, precision=-3)
@example(alpha=5e-324, precision=-3)
@example(alpha=600.0, precision=-10**30)
@example(alpha=600.0, precision=10**30)
@example(alpha=1e308, precision=0)  # times a limit, it overflows the LP's rows
def test_solve_droops_alpha_and_precision_end_in_a_documented_exit(grid_file, tmp_path, capsys,
                                                                   alpha, precision):
    rc = main(["solve-droops", "--grid", str(grid_file), f"--alpha={alpha!r}",
               f"--precision={precision}", "--out", str(tmp_path / "droops.json")])
    out, err = capsys.readouterr()
    assert rc in range(5) and out == "" and "Traceback" not in err
    if rc:
        assert err.startswith("droopkit: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_solve_droops_highs_leaves_stdout_empty(grid_file, tmp_path, capfd):
    out = tmp_path / "droops.json"
    rc = main(["solve-droops", "--grid", str(grid_file), "--backend", "highs", "--out", str(out)])
    assert rc == 0
    assert capfd.readouterr().out == ""
    assert json.loads(out.read_text())["status"] == "optimal"


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_market_loop_non_finite_step_exits_one(grid_file, hours_file, tmp_path, capsys, step):
    out = tmp_path / "out"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--policy", "equal", f"--step-mw={step}", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, f"step_mw={step} must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-12", "0.001"])
def test_market_loop_step_needing_too_many_rounds_exits_one(grid_file, hours_file, tmp_path,
                                                            capsys, step):
    out = tmp_path / "out"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--policy", "equal", f"--step-mw={step}", "--out", str(out)])
    _assert_one_line_usage_error(
        rc, capsys, f"step_mw={step} needs up to", "steps to withdraw a capacity of 1757.5 MW, "
        "more than the 1,000,000 a link may take")
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-13", "1e-300"])
def test_market_loop_step_too_small_to_reduce_exits_one(grid_file, hours_file, tmp_path, capsys,
                                                        step):
    out = tmp_path / "out"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--policy", "equal", f"--step-mw={step}", "--out", str(out)])
    _assert_one_line_usage_error(
        rc, capsys, f"step_mw={step} is too small to reduce a capacity of 1757.5 MW")
    assert not out.exists()


def test_market_loop_non_finite_step_exits_one_without_hours(grid_file, hours_file, tmp_path,
                                                             capsys):
    hours_file.write_text(hours_file.read_text().splitlines()[0] + "\n")
    out = tmp_path / "out"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--policy", "equal", "--step-mw=nan", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "step_mw=nan must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("precision", ["-400", "-320"])
@pytest.mark.parametrize("command", ["solve-droops", "market-loop"])
def test_digit_grid_too_fine_exits_one_naming_psi(grid_file, hours_file, tmp_path, capsys,
                                                  command, precision):
    out = tmp_path / "out"
    args = [command, "--grid", str(grid_file), "--backend", "bnb",
            f"--precision={precision}", "--out", str(out)]
    if command == "market-loop":
        args += ["--hours", str(hours_file)]
    rc = main(args)
    _assert_one_line_usage_error(rc, capsys, f"psi={precision} is too fine a digit grid")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-n1", "market-loop"])
@pytest.mark.parametrize("network", [True, False])
def test_duplicate_converter_id_exits_one(tmp_path, island, hours_file, capsys, command,
                                          network):
    doc = grid_to_json(island)
    doc["converters"][5]["id"] = "UK"
    if not network:
        del doc["network"]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = [command, "--grid", str(grid), "--out", str(out)]
    if command == "market-loop":
        args += ["--hours", str(hours_file)]
    rc = main(args)
    _assert_one_line_usage_error(rc, capsys, "duplicate converter id 'UK'")
    assert not out.exists()


def test_market_loop_backend_without_gains_at_zero_flow_exits_one(grid_file, hours_file,
                                                                  tmp_path, capsys):
    # alpha = 600.5 is off the 10^0 grid, so B&B finds no gains at any flow
    out = tmp_path / "out"
    rc = main(["market-loop", "--grid", str(grid_file), "--hours", str(hours_file),
               "--backend", "bnb", "--alpha", "600.5", "--precision", "0", "--out", str(out)])
    _assert_one_line_usage_error(rc, capsys, "hour 0: the bnb backend finds no gains even at "
                                 "zero flows", "not representable on the 10^0 grid")
    assert not out.exists()


def _failing_highs_lp(*args, what):
    raise droop_opt.SolverError(f"{what} failed with HiGHS model status kIterationLimit")


@pytest.mark.parametrize(
    "backend, patch, reason",
    [
        ("oracle", ("_highs_lp", _failing_highs_lp),
         "oracle LP failed with HiGHS model status kIterationLimit"),
        ("bnb", ("_solve_bnb", functools.partial(droop_opt._solve_bnb, node_limit=1)),
         "branch and bound exceeded 1 nodes"),
    ],
)
@pytest.mark.parametrize("command", ["solve-droops", "market-loop"])
def test_solver_failure_exits_one_without_traceback(grid_file, hours_file, tmp_path, capsys,
                                                    monkeypatch, command, backend, patch,
                                                    reason):
    monkeypatch.setattr(droop_opt, *patch)
    out = tmp_path / "out"
    args = [command, "--grid", str(grid_file), "--backend", backend, "--out", str(out)]
    if command == "market-loop":
        args += ["--hours", str(hours_file), "--policy", "adaptive"]
    rc = main(args)
    _assert_one_line_usage_error(rc, capsys, f"droopkit: solver failed: {reason}")
    assert not out.exists()


def test_commands_load_scipy_only_where_they_solve():
    """``tests/import_boundary.py`` (also a CI step) passes in a fresh interpreter."""
    script = Path(__file__).with_name("import_boundary.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


#: Runs the CLI on its arguments with scipy's HiGHS binding made unimportable.
_NO_BINDING_CHILD = """
import sys
sys.modules["scipy.optimize._highspy._core"] = None
from droopkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_without_highs_binding(argv):
    return subprocess.run([sys.executable, "-c", _NO_BINDING_CHILD, *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("command", ["solve-droops", "market-loop"])
def test_missing_highs_binding_fails_the_first_solve_in_one_line(grid_file, hours_file, tmp_path,
                                                                 command):
    out = tmp_path / "out"
    args = [command, "--grid", str(grid_file), "--out", str(out)]
    if command == "market-loop":
        args += ["--hours", str(hours_file), "--policy", "adaptive"]
    proc = _run_without_highs_binding(args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("droopkit: solver failed: ") and proc.stderr.count("\n") == 1
    assert "scipy.optimize._highspy._core" in proc.stderr
    assert not out.exists()


def _output_bytes(path):
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


@pytest.mark.parametrize("command", ["check-n1", "simulate", "market-loop"])
def test_missing_highs_binding_leaves_commands_that_never_solve_unchanged(
    grid_file, hours_file, tmp_path, capsys, command
):
    droops = tmp_path / "droops.json"
    assert main(["solve-droops", "--grid", str(grid_file), "--out", str(droops)]) == 0
    args = {
        "check-n1": ["--droops", str(droops)],
        "simulate": ["--droops", str(droops), "--t-end", "0.5", "--event", "outage:UK@0.1"],
        "market-loop": ["--hours", str(hours_file), "--policy", "equal"],
    }[command]
    expected, got = tmp_path / "expected", tmp_path / "got"
    capsys.readouterr()
    assert main([command, "--grid", str(grid_file), *args, "--out", str(expected)]) == 0
    assert capsys.readouterr() == ("", "")
    proc = _run_without_highs_binding([command, "--grid", str(grid_file), *args,
                                       "--out", str(got)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert _output_bytes(got) == _output_bytes(expected)
