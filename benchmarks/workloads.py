"""The benchmark's four workloads.

Each workload builds its inputs from the seed once, then runs *passes*: one
pass is a fixed, seed-determined batch of operations through droopkit's
public entry points (``droopkit.cli.main`` and the Python API).  Only the
operations themselves are timed; every output is checked after the pass,
outside the timed region.  The first pass is checked in full; later passes
must reproduce its outputs exactly.

Each pass deletes the previous pass's output files before the timed calls, so
that every timed call writes new files, as a user's first run does.  An
overwrite would instead truncate the old file, which on ext4 starts (and may
wait for) a disk write-back of the old contents inside the timed call.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from droopkit import fixtures
from droopkit.cli import grid_to_json, hours_to_csv, main
from droopkit.core import DroopAssignment
from droopkit.droop_opt import DroopProblem, solve_problem
from droopkit.dynamics import assemble_model, equal_gain_h2, h2_norm, reduce_grounded
from droopkit.market import clear_market, plan
from droopkit.security import post_fault_flows, screen_all_contingencies

ALPHA = 600.0
TAU = 0.02
DT = 1e-3

#: Node budget of one B&B solve.  A few random instances per thousand make
#: the built-in B&B branch far past it; they end at the budget and are
#: counted as node-limit hits, not solved (their time stays in the samples).
BNB_NODE_LIMIT = 1000


@dataclass
class PassResult:
    """Timed samples, work done and check outcomes of one pass."""

    wall_s: float = 0.0  # sum of the timed operations
    samples: dict[str, list[float]] = field(default_factory=dict)  # seconds per op
    work: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)  # per-layer values known directly
    digests: dict[str, str] = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # what verify() checks

    def timed(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)
        self.wall_s += seconds
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_grid(path: Path, scenario) -> None:
    path.write_text(json.dumps(grid_to_json(scenario), indent=2) + "\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


class Workload:
    """Common base: subclasses define the pass, its checks and metrics."""

    name = ""
    default_seed = 0

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        self.workdir = workdir
        self.warmup_dir = workdir / "warmup"  # the warm-up's outputs; see clear_warmup
        self.first: PassResult | None = None

    def warmup_spec(self) -> dict:
        """First operation of the workload, run after the import in set-up."""
        raise NotImplementedError

    def clear_warmup(self) -> None:
        """Delete the warm-up's outputs, so that each warm-up writes new files."""
        shutil.rmtree(self.warmup_dir, ignore_errors=True)
        self.warmup_dir.mkdir()

    def operate(self, result: PassResult, tracer) -> None:
        """Run and time one pass; ``tracer`` is None in untraced runs."""
        raise NotImplementedError

    def verify(self, result: PassResult) -> None:
        """Check the pass's outputs; called after timing and tracing end."""
        raise NotImplementedError

    def input_facts(self) -> dict[str, float]:
        """Input properties reported with the per-layer metrics."""
        return {}

    def named_metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str, int]]:
        """The workload's named end-to-end metrics: name -> (value, unit, samples)."""
        raise NotImplementedError

    def _compare_to_first(self, result: PassResult) -> None:
        """Later passes must reproduce the first pass's outputs exactly."""
        if self.first is None:
            self.first = result
            return
        for key, digest in self.first.digests.items():
            result.check(result.digests.get(key) == digest, f"{key} differs from the first pass")


# ---------------------------------------------------------------------------
# year_adaptive / year_equal
# ---------------------------------------------------------------------------


class Year(Workload):
    """``market-loop`` over a synthetic year on the six-link island."""

    default_seed = 20300
    policy = ""
    full_hours = 0

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        super().__init__(workdir, seed, tiny)
        self.n_hours = 48 if tiny else self.full_hours
        self.island = fixtures.island_scenario()
        self.hours = fixtures.year_hours(n_hours=self.n_hours, seed=seed)
        self.grid = workdir / "grid.json"
        self.hours_csv = workdir / "hours.csv"
        self.day_csv = workdir / "day.csv"
        self.out = workdir / "out"
        _write_grid(self.grid, self.island)
        self.hours_csv.write_text(hours_to_csv(self.hours))
        self.day_csv.write_text(hours_to_csv(self.hours[:24]))

    def _argv(self, hours_csv: Path, out: Path) -> list[str]:
        return ["market-loop", "--grid", str(self.grid), "--hours", str(hours_csv),
                "--policy", self.policy, "--out", str(out)]

    def warmup_spec(self) -> dict:
        return {"cli": [self._argv(self.day_csv, self.warmup_dir / "out")]}

    def operate(self, result: PassResult, tracer) -> None:
        argv = self._argv(self.hours_csv, self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        if tracer is None:
            rc = main(argv)
        else:
            with tracer.span("bench.market_loop"):
                rc = main(argv)
        result.timed("market_loop", time.perf_counter() - t0)
        result.work["hours"] = self.n_hours
        result.outputs.append(rc)

    def verify(self, result: PassResult) -> None:
        rc = result.outputs[0]
        result.check(rc == 0, f"market-loop exit code {rc}")
        for name in ("capacities.csv", "summary.json"):
            path = self.out / name
            result.digests[name] = sha256(path) if path.exists() else "missing"
        if rc == 0 and self.first is None:
            self._check_outputs(result)
        self._compare_to_first(result)

    def _check_outputs(self, result: PassResult) -> None:
        summary = json.loads((self.out / "summary.json").read_text())
        result.check(summary["hours"] == self.n_hours, "summary.json hour count")
        rows = [ln.split(",") for ln in (self.out / "capacities.csv").read_text().splitlines()[1:]]
        shape = (self.n_hours, self.island.n)
        if len(rows) != shape[0] * shape[1]:
            result.check(False, f"capacities.csv has {len(rows)} rows, expected {shape[0] * shape[1]}")
            return
        caps = np.array([float(r[2]) for r in rows]).reshape(shape)
        flows = np.array([float(r[3]) for r in rows]).reshape(shape)
        self.check_year(result, caps, flows)

    def check_year(self, result: PassResult, caps: np.ndarray, flows: np.ndarray) -> None:
        raise NotImplementedError

    def input_facts(self) -> dict[str, float]:
        """Share of hours whose first clearing is N-1 secure under alpha/n."""
        equal = DroopAssignment.equal(ALPHA, self.island.n)
        secure = 0
        for hour in self.hours:
            flows = clear_market(hour)
            scen = fixtures.island_scenario(p_ref_mw=tuple(flows))
            secure += all(r.secure for r in screen_all_contingencies(equal, scen))
        return {"market.equal_secure_share": secure / len(self.hours)}

    def named_metrics(self, passes):
        rate = sum(p.work["hours"] for p in passes) / sum(p.wall_s for p in passes)
        return {
            "hours_per_s": (rate, "h/s", len(passes)),
            "hour_ms": (1e3 / rate, "ms", len(passes)),
        }


class YearAdaptive(Year):
    name = "year_adaptive"
    policy = "adaptive"
    full_hours = 2190

    def check_year(self, result, caps, flows):
        # C7: adaptive gains never need less capacity than equal gains
        equal = plan(self.island, self.hours, policy="equal")
        ref = np.array([rec.capacity_mw for rec in equal.records])
        result.check(bool(np.all(caps >= ref - 1e-9)), "adaptive capacity below equal capacity")


class YearEqual(Year):
    name = "year_equal"
    policy = "equal"
    full_hours = 8760

    def check_year(self, result, caps, flows):
        equal = DroopAssignment.equal(ALPHA, self.island.n)
        insecure = 0
        for row in flows:
            scen = fixtures.island_scenario(p_ref_mw=tuple(row))
            insecure += not all(r.secure for r in screen_all_contingencies(equal, scen))
        result.check(insecure == 0, f"{insecure} final equal-gain flows re-screen insecure")


# ---------------------------------------------------------------------------
# gain_select
# ---------------------------------------------------------------------------


class GainSelect(Workload):
    """``solve_problem`` on C2-style random instances, oracle and bnb."""

    name = "gain_select"
    default_seed = 4242

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        super().__init__(workdir, seed, tiny)
        rng = np.random.default_rng(seed)
        # n cycles through 2..6 so that every seed has the same n-mix; bnb
        # runs on the feasible ones of every eighth instance, spread over
        # the pass like the oracle solves
        n_instances = 20 if tiny else 1000
        self.bnb_every = 4 if tiny else 8
        self.instances = [rng.uniform(-0.3, 0.92, size=2 + i % 5) for i in range(n_instances)]

    @staticmethod
    def problem(p: np.ndarray) -> DroopProblem:
        n = p.size
        return DroopProblem(alpha=ALPHA, x_min=np.full(n, 10.0), p_ref=p,
                            p_max=np.full(n, 0.95), psi=-3)

    @staticmethod
    def solve_bnb(problem: DroopProblem):
        return solve_problem(problem, backend="bnb", node_limit=BNB_NODE_LIMIT)

    def warmup_spec(self) -> dict:
        return {"solve": [float(v) for v in self.instances[0]], "node_limit": BNB_NODE_LIMIT}

    def operate(self, result: PassResult, tracer) -> None:
        problems = [self.problem(p) for p in self.instances]
        oracle, bnb = [], {}
        for i, prob in enumerate(problems):
            t0 = time.perf_counter()
            if tracer is None:
                sol = solve_problem(prob, backend="oracle")
            else:
                with tracer.span("bench.oracle"):
                    sol = solve_problem(prob, backend="oracle")
            result.timed("oracle", time.perf_counter() - t0)
            oracle.append(sol)
            if i % self.bnb_every == 0 and sol.status == "optimal":
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        bnb[i] = self.solve_bnb(prob)
                    else:
                        with tracer.span("bench.bnb"):
                            bnb[i] = self.solve_bnb(prob)
                except RuntimeError as exc:
                    if "exceeded" not in str(exc):
                        raise
                    bnb[i] = None
                result.timed("bnb", time.perf_counter() - t0)
        result.outputs = [problems, oracle, bnb]

    def verify(self, result: PassResult) -> None:
        problems, oracle, bnb = result.outputs
        nodes = hits = 0
        digest = hashlib.sha256()
        for i, (prob, sol) in enumerate(zip(problems, oracle)):
            max_p = float(np.max(np.abs(prob.p_ref)))
            result.check(sol.status in ("optimal", "infeasible"), f"oracle {i}: {sol.status}")
            if sol.status == "optimal":
                x = sol.assignment.x
                result.check(abs(float(x.sum()) - ALPHA) <= 1e-6, f"oracle {i}: gain sum")
                result.check(sol.residual <= 1e-6 * max(1.0, max_p), f"oracle {i}: residual")
                digest.update(np.asarray(x, dtype=float).tobytes())
            if i in bnb and bnb[i] is None:
                hits += 1
            elif i in bnb:
                b = bnb[i]
                tol = prob.n**2 * 1e-3 * max_p
                ok = (
                    b.status == "optimal"
                    and b.objective >= sol.objective - 1e-6
                    and b.objective - sol.objective <= tol
                    and b.residual <= 1e-2 * max_p
                )
                result.check(ok, f"bnb {i}: {b.status}, gap or residual out of C2 bounds")
                if b.assignment is not None:
                    digest.update(np.asarray(b.assignment.x, dtype=float).tobytes())
                nodes += int(b.note.split("=")[1]) if b.note.startswith("nodes=") else 0
        result.digests["solutions"] = digest.hexdigest()
        feasible = sum(s.status == "optimal" for s in oracle)
        result.facts = {
            "droop_opt.bnb_nodes": float(nodes),
            "droop_opt.bnb_node_limit_hits": float(hits),
            "droop_opt.instances": float(len(problems)),
            "droop_opt.feasible_share": feasible / len(problems),
            **{
                f"droop_opt.instances_n{n}": float(sum(p.n == n for p in problems))
                for n in range(2, 7)
            },
        }
        self._compare_to_first(result)

    def named_metrics(self, passes):
        oracle = [s for p in passes for s in p.samples["oracle"]]
        bnb = [s for p in passes for s in p.samples["bnb"]]
        # the baseline table quotes n = 6 figures
        oracle6 = [s for p in passes for s, x in zip(p.samples["oracle"], self.instances)
                   if x.size == 6]
        bnb6 = [s for p in passes for s, i in zip(p.samples["bnb"], p.outputs[2])
                if self.instances[i].size == 6]
        return {
            "oracle_ms_p50": (_pct(oracle, 50) * 1e3, "ms", len(oracle)),
            "oracle_ms_p99": (_pct(oracle, 99) * 1e3, "ms", len(oracle)),
            "bnb_ms_p50": (_pct(bnb, 50) * 1e3, "ms", len(bnb)),
            "bnb_ms_p90": (_pct(bnb, 90) * 1e3, "ms", len(bnb)),
            "oracle_per_s": (len(oracle) / sum(oracle), "1/s", len(oracle)),
            "bnb_node_limit_hits": (passes[0].facts["droop_opt.bnb_node_limit_hits"], "count",
                                    len(passes[0].samples["bnb"])),
            "oracle_ms_p50_n6": (_pct(oracle6, 50) * 1e3, "ms", len(oracle6)),
            "bnb_ms_p50_n6": (_pct(bnb6, 50) * 1e3, "ms", len(bnb6)),
        }


# ---------------------------------------------------------------------------
# island_transient
# ---------------------------------------------------------------------------


class IslandTransient(Workload):
    """``simulate`` of every outage and a wind step, and an H2 sweep."""

    name = "island_transient"
    default_seed = 99

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        super().__init__(workdir, seed, tiny)
        rng = np.random.default_rng(seed)
        self.island = fixtures.island_scenario()
        self.t_end = 5.0 if tiny else 30.0
        self.grid = workdir / "grid.json"
        _write_grid(self.grid, self.island)

        t_event = round(float(rng.uniform(0.2, 1.0)), 3)
        wind_node = fixtures.WIND_NODES[int(rng.integers(len(fixtures.WIND_NODES)))]
        wind_mw = round(float(rng.uniform(-400.0, -100.0)), 1)
        self.events = [(f"outage:{cid}@{t_event:g}", cid, None) for cid in self.island.ids]
        self.events.append((f"wind:{wind_node}:{wind_mw:g}@{t_event:g}", None, wind_mw))
        self.t_event = t_event

        # random gain sets summing to alpha with every gain >= x_min; every
        # tenth set is equal so the closed form checks the Lyapunov route
        n = self.island.n
        self.gain_sets = []
        for j in range(20 if tiny else 1000):
            if j % 10 == 0:
                self.gain_sets.append(np.full(n, ALPHA / n))
            else:
                share = rng.dirichlet(np.ones(n))
                self.gain_sets.append(10.0 + share * (ALPHA - 10.0 * n))

    def _argv(self, event: str, out: Path, t_end: float) -> list[str]:
        return ["simulate", "--grid", str(self.grid), "--alpha", f"{ALPHA:g}",
                "--t-end", f"{t_end:g}", "--dt", f"{DT:g}", "--event", event, "--out", str(out)]

    def warmup_spec(self) -> dict:
        out = self.warmup_dir / "traj.csv"
        h2 = self.warmup_dir / "h2.json"
        return {"cli": [self._argv(self.events[0][0], out, 1.0),
                        ["h2", "--grid", str(self.grid), "--out", str(h2)]]}

    def operate(self, result: PassResult, tracer) -> None:
        # the H2 sweep is cut into one chunk after each simulation, so that
        # both kinds of operation sample the whole pass
        chunks = np.array_split(np.arange(len(self.gain_sets)), len(self.events))
        outputs, values = [], []
        for j, (event, _, _) in enumerate(self.events):
            out = self.workdir / f"traj{j}.csv"
            argv = self._argv(event, out, self.t_end)
            out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span("bench.simulate"):
                    rc = main(argv)
            result.timed("simulate", time.perf_counter() - t0)
            outputs.append((rc, out))
            for k in chunks[j]:
                values.append(self._h2(self.gain_sets[k], result, tracer))
        result.work["steps"] = len(self.events) * round(self.t_end / DT)
        result.outputs = [outputs, values]

    def _h2(self, x: np.ndarray, result: PassResult, tracer) -> float:
        t0 = time.perf_counter()
        if tracer is None:
            value = h2_norm(reduce_grounded(assemble_model(self.island, DroopAssignment(x), TAU)))
        else:
            with tracer.span("bench.h2"):
                with tracer.span("bench.assemble"):
                    model = assemble_model(self.island, DroopAssignment(x), tau=TAU)
                with tracer.span("bench.reduce"):
                    reduced = reduce_grounded(model)
                value = h2_norm(reduced)
        result.timed("h2", time.perf_counter() - t0)
        return value

    def verify(self, result: PassResult) -> None:
        outputs, values = result.outputs
        for (event, _, _), (rc, _) in zip(self.events, outputs):
            result.check(rc == 0, f"simulate {event}: exit code {rc}")
        for j, (_, out) in enumerate(outputs):
            result.digests[f"traj{j}.csv"] = sha256(out) if out.exists() else "missing"
        result.digests["h2"] = hashlib.sha256(np.array(values).tobytes()).hexdigest()
        if self.first is None:
            for (event, outage, wind_mw), (rc, out) in zip(self.events, outputs):
                if rc == 0:
                    self._check_trajectory(result, event, outage, wind_mw, out)
            self._check_h2(result, values)
        self._compare_to_first(result)

    def _check_trajectory(self, result, event, outage, wind_mw, path: Path) -> None:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        ids = [h[len("p_pu_"):] for h in lines[0].split(",") if h.startswith("p_pu_")]
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        n = len(ids)
        time_s, power = data[:, 0], data[:, 1 + n:]
        result.check(data.shape[0] == round(self.t_end / DT) + 1, f"{event}: row count")
        equal = DroopAssignment.equal(ALPHA, self.island.n)
        wind = np.full(time_s.size, self.island.wind_total)
        if outage is not None:
            keep = [i for i, cid in enumerate(ids) if cid != outage]
            expect = post_fault_flows(equal, self.island, outage)
            final = power[-1, keep]
        else:
            delta = wind_mw / self.island.base.s_base_mva
            wind[time_s >= self.t_event - 0.5 * DT] += delta
            expect = self.island.p_ref + equal.x * delta / ALPHA
            final = power[-1]
        # C6: the final powers are the closed-form sharing, and total power
        # equals the wind injection on every row
        result.check(float(np.max(np.abs(final - expect))) <= 1e-6, f"{event}: final powers")
        result.check(float(np.max(np.abs(power.sum(axis=1) - wind))) <= 1e-8,
                     f"{event}: power balance")

    def _check_h2(self, result, values) -> None:
        n = self.island.n
        for x, value in zip(self.gain_sets, values):
            ok = np.isfinite(value) and value > 0
            if np.ptp(x) == 0.0:
                expect = equal_gain_h2(n, 1.0 / float(x[0]), TAU)
                ok = ok and abs(value - expect) <= 1e-8 * expect
            result.check(bool(ok), f"H2 of gains {np.round(x, 3).tolist()}")

    def named_metrics(self, passes):
        steps = sum(p.work["steps"] for p in passes)
        simulate = [s for p in passes for s in p.samples["simulate"]]
        h2 = [s for p in passes for s in p.samples["h2"]]
        return {
            "sim_steps_per_s": (steps / sum(simulate), "steps/s", len(simulate)),
            "h2_ms_p50": (_pct(h2, 50) * 1e3, "ms", len(h2)),
            "h2_ms_p99": (_pct(h2, 99) * 1e3, "ms", len(h2)),
        }


WORKLOADS = {w.name: w for w in (YearAdaptive, YearEqual, GainSelect, IslandTransient)}
