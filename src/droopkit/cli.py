"""Command-line front end and file formats.

Subcommands::

    solve-droops   grid JSON -> droops JSON (exit 0 optimal, 2 infeasible,
                   4 precision-limited; on 2 and 4 one stderr line gives the reason)
    check-n1       grid + droops -> contingency CSV (exit 0 secure, 3 not)
    h2             grid + droops -> norms JSON
    simulate       grid + droops + events -> trajectory CSV
    market-loop    grid + hours CSV -> capacities CSV + summary JSON

Grid files are JSON with powers in megawatts::

    {"base": {"s_base_mva": 1850.0, "f_nom_hz": 50.0, "omega_ref": 1.0},
     "converters": [{"id": "UK", "rating_mva": 1850.0, "p_ref_mw": 1740.0,
                     "p_max_pu": 0.95, "x_min": 10.0}, ...],
     "wind": [{"node": "WF1", "p_mw": 2376.0}, ...],
     "network": {"nodes": [...], "edges": [["UK", "island", 10.0], ...],
                 "grounded_node": "island"}}

``network`` may be omitted: the default is the star collection grid.  Hours
files are CSV with columns ``hour,wind_mw,cap_<LINK>...,bid_fixture``.  All
numbers are serialized with 12 significant digits and outputs are
byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_F_NOM_HZ,
    DEFAULT_OMEGA_REF,
    DEFAULT_P_MAX,
    DEFAULT_X_MIN,
    Converter,
    DroopAssignment,
    GridScenario,
    NetworkGraph,
    ScenarioError,
    SystemBase,
    validate_scenario,
)
from .droop_opt import (
    DEFAULT_ALPHA,
    DEFAULT_PSI,
    DroopSolution,
    SolverError,
    StiffnessError,
    build_exact_problem,
    solve_problem,
)
from .dynamics import (
    DEFAULT_DT,
    DEFAULT_T_END,
    DEFAULT_TAU,
    ConverterOutage,
    SimulationDiverged,
    UnstableModelError,
    WindStep,
    assemble_model,
    equal_gain_h2,
    h2_norm,
    reduce_grounded,
    simulate,
    trajectory_to_csv,
)
from .market import DEFAULT_STEP_MW, HourScenario, duration_curves, plan
from .security import reports_to_csv, screen_all_contingencies

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INSECURE = 3
EXIT_PRECISION = 4


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _is(kind: type):
    """Converter passing values of type ``kind`` through and rejecting the rest."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value
    return check


def _list(item):
    """Converter of a JSON list, applying ``item`` to every entry."""
    return lambda value: [item(v) for v in _is(list)(value)]


def _node(value) -> str:
    if isinstance(value, (list, dict)):
        raise TypeError("a node id is a scalar")
    return str(value)


def _edge(value) -> tuple[str, str, float]:
    u, v, b = _is(list)(value)
    return str(u), str(v), float(b)


# (description, converter) pairs; a converter raises TypeError or ValueError
# on a value of the wrong type
_NUMBER = ("a number", float)
_NUMBERS = ("a list of numbers", _list(float))
_ID = ("an id", str)
_OBJECT = ("an object", _is(dict))
_OBJECTS = ("a list of objects", _list(_is(dict)))
_NODES = ("a list of node ids", _list(_node))
_EDGES = ("a list of [node, node, susceptance] triples", _list(_edge))


def _field(doc, key: str, kind=_NUMBER, *, at: str = "", file: str = "grid", default=_REQUIRED):
    """``doc[key]`` converted as ``kind``, or ``default`` when the key is absent.

    A null counts as absent where the default is None.  A ``doc`` that is no
    JSON object, a missing required key, or a value of the wrong type raises
    ScenarioError naming the field as ``at.key`` in the ``file``.
    """
    name = f"{at}.{key}" if at else key
    if not isinstance(doc, dict):
        raise ScenarioError(f"{file} file must hold a JSON object")
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise ScenarioError(f"{file} field {name!r} is missing")
    if value is None and default is None:
        return None
    what, convert = kind
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{file} field {name!r} must be {what}") from None


def grid_from_json(data: dict) -> GridScenario:
    base_doc = _field(data, "base", _OBJECT)
    base = SystemBase(
        s_base_mva=_field(base_doc, "s_base_mva", at="base"),
        f_nom_hz=_field(base_doc, "f_nom_hz", at="base", default=DEFAULT_F_NOM_HZ),
        omega_ref=_field(base_doc, "omega_ref", at="base", default=DEFAULT_OMEGA_REF),
    )
    converters = []
    for j, c in enumerate(_field(data, "converters", _OBJECTS)):
        at = f"converters[{j}]"
        converters.append(Converter(
            id=_field(c, "id", _ID, at=at),
            rating_mva=_field(c, "rating_mva", at=at),
            p_ref=_field(c, "p_ref_mw", at=at) / base.s_base_mva,
            p_max=_field(c, "p_max_pu", at=at, default=DEFAULT_P_MAX),
            x_min=_field(c, "x_min", at=at, default=DEFAULT_X_MIN),
        ))
    wind = []
    for j, w in enumerate(_field(data, "wind", _OBJECTS, default=[])):
        at = f"wind[{j}]"
        wind.append((_field(w, "node", _ID, at=at), _field(w, "p_mw", at=at) / base.s_base_mva))
    net = _field(data, "network", _OBJECT, default=None)
    if net is None:
        return GridScenario.with_star_network(base, converters, wind)
    graph = NetworkGraph(
        nodes=tuple(_field(net, "nodes", _NODES, at="network")),
        edges=tuple(_field(net, "edges", _EDGES, at="network")),
        grounded_node=_field(net, "grounded_node", ("a node id", _is(str)), at="network",
                             default=None),
    )
    return GridScenario(base=base, converters=converters, wind_injections=wind, network=graph)


def _load_json(path: str | Path, file: str):
    """The JSON document in ``path``; ``file`` names its kind in the error when it
    nests too deeply for the parser."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ScenarioError(f"{file} file {path} nests too deeply to parse") from None


def load_grid(path: str | Path) -> GridScenario:
    scenario = grid_from_json(_load_json(path, "grid"))
    validate_scenario(scenario)
    return scenario


def grid_to_json(scenario: GridScenario) -> dict:
    s = scenario.base.s_base_mva
    return {
        "base": {
            "s_base_mva": _round12(s),
            "f_nom_hz": _round12(scenario.base.f_nom_hz),
            "omega_ref": _round12(scenario.base.omega_ref),
        },
        "converters": [
            {
                "id": c.id,
                "rating_mva": _round12(c.rating_mva),
                "p_ref_mw": _round12(c.p_ref * s),
                "p_max_pu": _round12(c.p_max),
                "x_min": _round12(c.x_min),
            }
            for c in scenario.converters
        ],
        "wind": [
            {"node": node, "p_mw": _round12(p * s)} for node, p in scenario.wind_injections
        ],
        "network": {
            "nodes": list(scenario.network.nodes),
            "edges": [[u, v, _round12(b)] for u, v, b in scenario.network.edges],
            "grounded_node": scenario.network.grounded_node,
        },
    }


def droops_to_json(solution: DroopSolution, ids: tuple[str, ...]) -> dict:
    doc = {
        "status": solution.status,
        "alpha": None,
        "x": None,
        "k_f": None,
        "objective": None if solution.objective is None else _round12(solution.objective),
        "residual": _round12(solution.residual),
        "ids": list(ids),
    }
    if solution.assignment is not None:
        doc["alpha"] = _round12(solution.assignment.alpha)
        doc["x"] = [_round12(v) for v in solution.assignment.x]
        doc["k_f"] = [_round12(v) for v in solution.assignment.k_f]
    return doc


def load_droops(path: str | Path, scenario: GridScenario) -> DroopAssignment:
    data = _load_json(path, "droops")
    x = _field(data, "x", _NUMBERS, file="droops", default=None)
    if x is None:
        status = _field(data, "status", ("a string", str), file="droops", default=None)
        raise ScenarioError(f"droops file {path} holds no solution (status {status})")
    ids = _field(data, "ids", ("a list of converter ids", _list(_is(str))), file="droops",
                 default=None)
    if ids:
        if sorted(ids) != sorted(scenario.ids):
            raise ScenarioError("droops file ids do not match the grid")
        if len(x) != len(ids):
            raise ScenarioError(f"droops field 'x' has {len(x)} gains but 'ids' has {len(ids)}")
        by_id = dict(zip(ids, x))
        x = [by_id[cid] for cid in scenario.ids]
    elif len(x) != scenario.n:
        raise ScenarioError("droops file length does not match the grid")
    return DroopAssignment(np.array(x))


def _convert(convert, text: str, what: str):
    """``convert(text)``, or a ScenarioError naming ``what`` (where it was read) and the text."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ScenarioError(f"{what} {text!r} is not {kind}") from None


def hours_from_csv(text: str, link_ids: tuple[str, ...]) -> list[HourScenario]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ScenarioError("hours CSV is empty")
    header = lines[0].split(",")
    expected = ["hour", "wind_mw"] + [f"cap_{cid}" for cid in link_ids] + ["bid_fixture"]
    if header != expected:
        raise ScenarioError(f"hours CSV header must be {','.join(expected)}")
    hours = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(expected):
            raise ScenarioError(
                f"hours CSV row {ln!r} has {len(cells)} cells, expected {len(expected)}"
            )
        try:
            hour = int(cells[0])
            wind = float(cells[1])
            caps = [float(v) for v in cells[2 : 2 + len(link_ids)]]
        except ValueError:  # name the first cell that does not parse
            for column, cell in zip(expected[:-1], cells):
                _convert(int if column == "hour" else float, cell,
                         f"hours CSV row {ln!r}: {column}")
            raise
        if not all(map(math.isfinite, [wind, *caps])):
            raise ScenarioError(f"hours CSV hour {hour}: wind_mw and cap_* must be finite")
        hours.append(HourScenario(hour=hour, wind_mw=wind, link_ids=link_ids,
                                  offered_mw=caps, bid_fixture=cells[-1]))
    return hours


def hours_to_csv(hours: list[HourScenario]) -> str:
    link_ids = hours[0].link_ids
    lines = [",".join(["hour", "wind_mw"] + [f"cap_{cid}" for cid in link_ids] + ["bid_fixture"])]
    for h in hours:
        cells = [str(h.hour), f"{h.wind_mw:.12g}"]
        cells += [f"{v:.12g}" for v in h.offered_mw]
        cells.append(h.bid_fixture)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _assignment_from_args(args, scenario: GridScenario) -> DroopAssignment:
    if args.droops:
        return load_droops(args.droops, scenario)
    return DroopAssignment.equal(args.alpha, scenario.n)


def cmd_solve_droops(args) -> int:
    scenario = load_grid(args.grid)
    try:
        problem = build_exact_problem(scenario, args.alpha, args.precision)
    except StiffnessError as exc:
        solution = DroopSolution("infeasible", None, None, 0.0, note=str(exc))
    else:
        solution = solve_problem(problem, backend=args.backend)
    _dump_json(droops_to_json(solution, scenario.ids), Path(args.out))
    if solution.status == "optimal":
        return EXIT_OK
    print(f"droopkit: {solution.status}: {solution.note}", file=sys.stderr)
    return EXIT_INFEASIBLE if solution.status == "infeasible" else EXIT_PRECISION


def cmd_check_n1(args) -> int:
    scenario = load_grid(args.grid)
    assignment = _assignment_from_args(args, scenario)
    reports = screen_all_contingencies(assignment, scenario)
    Path(args.out).write_text(reports_to_csv(reports, scenario))
    return EXIT_OK if all(r.secure for r in reports) else EXIT_INSECURE


def cmd_h2(args) -> int:
    scenario = load_grid(args.grid)
    assignment = _assignment_from_args(args, scenario)
    model = assemble_model(scenario, assignment, tau=args.tau)
    reduced = reduce_grounded(model)
    norm_sq = h2_norm(reduced)
    gains = assignment.k_f
    equal = float(np.ptp(gains)) <= 1e-12 * float(gains[0])
    doc = {
        "h2_squared": _round12(norm_sq),
        "h2": _round12(float(np.sqrt(norm_sq))),
        "n": scenario.n,
        "tau": _round12(args.tau),
        "equal_gain_closed_form": (
            _round12(equal_gain_h2(scenario.n, float(gains[0]), args.tau)) if equal else None
        ),
    }
    _dump_json(doc, Path(args.out))
    return EXIT_OK


def _parse_event(spec: str, base_mva: float):
    body, _, at = spec.partition("@")
    if not at:
        raise ScenarioError(f"event {spec!r} needs '@<time_s>'")
    time = _convert(float, at, f"event {spec!r}: time")
    parts = body.split(":")
    if parts[0] == "outage" and len(parts) == 2:
        return ConverterOutage(time=time, converter_id=parts[1])
    if parts[0] == "wind" and len(parts) == 3:
        mw = _convert(float, parts[2], f"event {spec!r}: megawatts")
        return WindStep(time=time, node=parts[1], delta_pu=mw / base_mva)
    raise ScenarioError(
        f"cannot parse event {spec!r}; use outage:<id>@<t> or wind:<node>:<mw>@<t>"
    )


def cmd_simulate(args) -> int:
    scenario = load_grid(args.grid)
    assignment = _assignment_from_args(args, scenario)
    model = assemble_model(scenario, assignment, tau=args.tau)
    events = [_parse_event(s, scenario.base.s_base_mva) for s in args.event or []]
    traj = simulate(model, events, dt=args.dt, t_end=args.t_end)
    Path(args.out).write_text(trajectory_to_csv(traj))
    return EXIT_OK


def cmd_market_loop(args) -> int:
    scenario = load_grid(args.grid)
    hours = hours_from_csv(Path(args.hours).read_text(), scenario.ids)
    run = plan(
        scenario,
        hours,
        policy=args.policy,
        step_mw=args.step_mw,
        alpha=args.alpha,
        backend=args.backend,
        psi=args.precision,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["hour,link,capacity_mw,flow_mw,reduced_mw,secure"]
    # one format string renders a record's rows, one per link; every planned
    # hour ends N-1 secure, so the last column is always true
    record_fmt = "\n".join(f"%d,{cid.replace('%', '%%')},%.12g,%.12g,%.12g,true"
                           for cid in run.link_ids)
    cells: list = [0] * (4 * len(run.link_ids))
    for rec in run.records:
        cells[0::4] = [rec.hour] * len(run.link_ids)
        cells[1::4] = rec.capacity_mw.tolist()
        cells[2::4] = rec.flow_mw.tolist()
        cells[3::4] = rec.reduced_mw.tolist()
        lines.append(record_fmt % tuple(cells))
    (out_dir / "capacities.csv").write_text("\n".join(lines) + "\n")

    curves = duration_curves(run)
    summary = {
        "policy": run.policy,
        "alpha": _round12(run.alpha),
        "step_mw": _round12(run.step_mw),
        "hours": len(run.records),
        "curtailed_mwh": _round12(curves.total_curtailed_mwh),
        "hours_at_full_capacity": {
            cid: curves.hours_at_full[cid] for cid in run.link_ids
        },
    }
    _dump_json(summary, out_dir / "summary.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droopkit",
        description="N-1-secure droop planning for zero-inertia offshore islands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--grid", required=True, help="grid scenario JSON")
        p.add_argument("--droops", help="droops JSON from solve-droops")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help="stiffness for the equal fallback when --droops is absent")

    p = sub.add_parser("solve-droops", help="optimize the inverse droop gains")
    p.add_argument("--grid", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--precision", type=int, default=DEFAULT_PSI, help="digit grid exponent psi")
    p.add_argument("--backend", default="oracle", choices=["oracle", "bnb", "highs"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve_droops)

    p = sub.add_parser("check-n1", help="screen all converter outages")
    add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_n1)

    p = sub.add_parser("h2", help="H2 performance of the reduced model")
    add_common(p)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("simulate", help="time-domain simulation of events")
    add_common(p)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--t-end", type=float, default=DEFAULT_T_END)
    p.add_argument("--event", action="append",
                   help="outage:<id>@<t_s> or wind:<node>:<mw>@<t_s>; repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("market-loop", help="capacity-reduction planning over an hours file")
    p.add_argument("--grid", required=True)
    p.add_argument("--hours", required=True, help="hours CSV")
    p.add_argument("--policy", default="adaptive", choices=["equal", "adaptive"])
    p.add_argument("--step-mw", type=float, default=DEFAULT_STEP_MW)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--precision", type=int, default=DEFAULT_PSI)
    p.add_argument("--backend", default="oracle", choices=["oracle", "bnb", "highs"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_market_loop)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UnstableModelError, SimulationDiverged) as exc:
        print(f"droopkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"droopkit: solver failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"droopkit: bad input: {exc!r}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
