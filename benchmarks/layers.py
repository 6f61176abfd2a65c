"""Per-layer metrics of one traced pass, computed from its spans.

Layers are named after droopkit's modules.  Times are totals over the pass
unless the name says otherwise (``_ms``/``_us`` without a percentile is the
median per call).  Counts must repeat exactly between passes of one seed.
"""

from __future__ import annotations

import numpy as np

from droopkit.droop_opt import _FEAS_TOL, exact_residual

from tracing import Span, has_ancestor, self_times

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.load_grid_ms", "ms", "lower"),
    ("cli.hours_parse_s", "s", "lower"),
    ("cli.output_write_s", "s", "lower"),
    ("cli.trajectory_csv_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("market.hours", "count", "higher"),
    ("market.plan_hour_ms_p50", "ms", "lower"),
    ("market.plan_hour_ms_p99", "ms", "lower"),
    ("market.plan_hour_self_s", "s", "lower"),
    ("market.clear_calls", "count", "lower"),
    ("market.clear_s", "s", "lower"),
    ("market.reduction_iterations", "count", "lower"),
    ("market.lp_hours_share", "ratio", "lower"),
    ("market.equal_secure_share", "ratio", "higher"),
    ("market.reduced_hours_share", "ratio", "lower"),
    ("security.screen_calls", "count", "lower"),
    ("security.screen_s", "s", "lower"),
    ("security.screen_us_p50", "us", "lower"),
    ("droop_opt.oracle_calls", "count", "lower"),
    ("droop_opt.oracle_s", "s", "lower"),
    ("droop_opt.oracle_self_s", "s", "lower"),
    ("droop_opt.lp_calls", "count", "lower"),
    ("droop_opt.lp_s", "s", "lower"),
    ("droop_opt.lp_per_oracle", "ratio", "lower"),
    ("droop_opt.build_milp_ms", "ms", "lower"),
    ("droop_opt.bnb_nodes", "count", "lower"),
    ("droop_opt.bnb_lp_calls", "count", "lower"),
    ("droop_opt.bnb_node_limit_hits", "count", "lower"),
    ("droop_opt.exact_residual_calls", "count", "lower"),
    ("droop_opt.exact_residual_s", "s", "lower"),
    ("droop_opt.equal_secure_share", "ratio", "higher"),
    ("droop_opt.instances", "count", "higher"),
    ("droop_opt.feasible_share", "ratio", "higher"),
    ("droop_opt.instances_n2", "count", "higher"),
    ("droop_opt.instances_n3", "count", "higher"),
    ("droop_opt.instances_n4", "count", "higher"),
    ("droop_opt.instances_n5", "count", "higher"),
    ("droop_opt.instances_n6", "count", "higher"),
    ("dynamics.h2_evals", "count", "higher"),
    ("dynamics.assemble_us", "us", "lower"),
    ("dynamics.reduce_us", "us", "lower"),
    ("dynamics.lyapunov_us", "us", "lower"),
    ("dynamics.simulate_s", "s", "lower"),
    ("dynamics.rk4_steps", "count", "higher"),
    ("core.kron_calls", "count", "lower"),
    ("core.kron_us", "us", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
#: Metrics that must read the same on every pass of one seed.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio")]


def _median(values, scale: float = 1.0) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _pct(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _share(part: float, base: float) -> float:
    return part / base if base else 0.0


def _equal_secure(problem) -> bool:
    """Whether alpha/n gains are in bounds and N-1 secure for a problem."""
    equal = np.full(problem.n, problem.alpha / problem.n)
    return bool(np.all(equal >= problem.x_min - 1e-12)) and (
        exact_residual(equal, problem) <= _FEAS_TOL
    )


def layer_metrics(spans: list[Span], facts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` ones.

    ``facts`` carries what the workload knows without spans (input
    properties and counters read from results) and overrides nothing it
    does not name.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def durations(name):
        return [spans[i].duration for i in idx(name)]

    def total(name):
        return float(sum(durations(name)))

    hours = idx("market.plan_hour")
    iterations = [spans[i].note for i in hours]
    oracle = idx("droop_opt.solve_exact_oracle")
    lps = idx("droop_opt.linprog")
    lp_in_oracle = {i for i in lps if has_ancestor(spans, i, "droop_opt.solve_exact_oracle")}
    lp_hours = set()
    for i in oracle:
        parent = spans[i].parent
        while parent >= 0 and spans[parent].name != "market.plan_hour":
            parent = spans[parent].parent
        if parent >= 0:
            lp_hours.add(parent)

    metrics = {
        "cli.load_grid_ms": _median(durations("cli.load_grid"), 1e3),
        "cli.hours_parse_s": total("cli.hours_from_csv"),
        "cli.output_write_s": float(sum(own[i] for i in idx("bench.market_loop"))),
        "cli.trajectory_csv_s": total("cli.trajectory_to_csv"),
        "cli.csv_bytes": float(sum(spans[i].note for i in idx("cli.trajectory_to_csv"))),
        "market.hours": float(len(hours)),
        "market.plan_hour_ms_p50": _pct(durations("market.plan_hour"), 50, 1e3),
        "market.plan_hour_ms_p99": _pct(durations("market.plan_hour"), 99, 1e3),
        "market.plan_hour_self_s": float(sum(own[i] for i in hours)),
        "market.clear_calls": float(len(idx("market.clear_market"))),
        "market.clear_s": total("market.clear_market"),
        "market.reduction_iterations": float(sum(iterations)),
        "market.lp_hours_share": _share(len(lp_hours), len(hours)),
        "market.equal_secure_share": 0.0,
        "market.reduced_hours_share": _share(sum(1 for it in iterations if it > 0), len(hours)),
        "security.screen_calls": float(len(idx("market.screen_all_contingencies"))),
        "security.screen_s": total("market.screen_all_contingencies"),
        "security.screen_us_p50": _median(durations("market.screen_all_contingencies"), 1e6),
        "droop_opt.oracle_calls": float(len(oracle)),
        "droop_opt.oracle_s": total("droop_opt.solve_exact_oracle"),
        "droop_opt.oracle_self_s": total("droop_opt.solve_exact_oracle")
        - float(sum(spans[i].duration for i in lp_in_oracle)),
        "droop_opt.lp_calls": float(len(lps)),
        "droop_opt.lp_s": total("droop_opt.linprog"),
        "droop_opt.lp_per_oracle": _share(len(lp_in_oracle), len(oracle)),
        "droop_opt.build_milp_ms": _median(durations("droop_opt.build_milp"), 1e3),
        "droop_opt.bnb_nodes": 0.0,
        "droop_opt.bnb_node_limit_hits": 0.0,
        "droop_opt.bnb_lp_calls": float(
            sum(
                1
                for i in lps
                if i not in lp_in_oracle and has_ancestor(spans, i, "bench.bnb")
            )
        ),
        "droop_opt.exact_residual_calls": float(len(idx("droop_opt.exact_residual"))),
        "droop_opt.exact_residual_s": total("droop_opt.exact_residual"),
        "droop_opt.equal_secure_share": _share(
            sum(1 for i in oracle if _equal_secure(spans[i].note)), len(oracle)
        ),
        "droop_opt.instances": 0.0,
        "droop_opt.feasible_share": 0.0,
        **{f"droop_opt.instances_n{n}": 0.0 for n in range(2, 7)},
        "dynamics.h2_evals": float(len(idx("bench.h2"))),
        "dynamics.assemble_us": _median(durations("bench.assemble"), 1e6),
        "dynamics.reduce_us": _median(durations("bench.reduce"), 1e6),
        "dynamics.lyapunov_us": _median(durations("dynamics.solve_continuous_lyapunov"), 1e6),
        "dynamics.simulate_s": total("cli.simulate"),
        "dynamics.rk4_steps": float(sum(spans[i].note for i in idx("cli.simulate"))),
        "core.kron_calls": float(len(idx("dynamics.kron_reduction"))),
        "core.kron_us": _median(durations("dynamics.kron_reduction"), 1e6),
    }
    metrics.update(facts)
    return metrics
