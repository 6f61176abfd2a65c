"""droopkit benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload year_equal --seed 7 --seconds 20 --trace 0
    python3 benchmarks/run.py --seconds 8       # every workload, untraced and traced

A single-workload run builds its inputs from ``--seed`` (default: the
workload's own seed), times set-up in fresh processes, then repeats passes of
the workload for ``--seconds``, checks every output, and prints one JSON
object as its last line.  With ``--trace 0`` the object holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from spans
recorded around droopkit's module-level functions (``tracing.py``), and
untraced passes alternate with the traced ones so that the tracing overhead
is measured in the same run.  Without ``--workload`` every workload runs
both ways in its own process, and the rows of ROADMAP's baseline table are
printed from the results; ``--out FILE`` also writes them as JSON.

The end-to-end metrics in ``BENCHMARK.json`` are shared by all workloads;
``HEADLINE`` says which of the workload's own named metrics each one is, and
``BEST_PASS`` which of those are taken from the run's best pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: keep the BLAS and OpenMP pools of numpy and scipy
# (here and in the set-up children) from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("year_adaptive", "year_equal", "gain_select", "island_transient")

#: Generic end-to-end metric -> the workload's own named metric.
HEADLINE = {
    "year_adaptive": {"rate_per_s": "hours_per_s", "latency_ms": "hour_ms"},
    "year_equal": {"rate_per_s": "hours_per_s", "latency_ms": "hour_ms"},
    "gain_select": {"rate_per_s": "oracle_per_s", "latency_ms": "oracle_ms_p99"},
    "island_transient": {"rate_per_s": "sim_steps_per_s", "latency_ms": "h2_ms_p99"},
}
E2E_UNITS = {"rate_per_s": "1/s", "latency_ms": "ms"}

#: Named metrics whose end-to-end value is that of the run's best pass, with
#: the function that picks it.  Every pass does the same seed-determined work,
#: so the best pass is the one least slowed by other load on the host (the
#: rule behind timeit's minimum).  On a shared 2-vCPU host, where other load
#: slows the program by up to 1.5x for tens of seconds to minutes at a time,
#: the best pass varied less between runs than the whole-run rate.  Tail
#: latencies stay percentiles over every operation of the run.
BEST_PASS = {"hours_per_s": max, "hour_ms": min, "oracle_per_s": max, "sim_steps_per_s": max}

SETUP_REPEATS = 5

#: Child program timed for ``setup_s``: import the CLI module in a fresh
#: interpreter, then run the workload's first operation.
SETUP_CHILD = r"""
import json, sys, time
spec = json.loads(sys.argv[1])
t0 = time.perf_counter()
import droopkit.cli
for argv in spec.get("cli", []):
    if droopkit.cli.main(argv) != 0:
        sys.exit(3)
if "solve" in spec:
    import numpy as np
    from droopkit.droop_opt import DroopProblem, solve_problem
    p = np.array(spec["solve"])
    prob = DroopProblem(alpha=600.0, x_min=np.full(p.size, 10.0), p_ref=p,
                        p_max=np.full(p.size, 0.95), psi=-3)
    if solve_problem(prob, backend="oracle").status == "optimal":
        try:
            solve_problem(prob, backend="bnb", node_limit=spec["node_limit"])
        except RuntimeError:
            pass
print(repr(time.perf_counter() - t0))
"""


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import droopkit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "droopkit" / "__init__.py").is_file():
        fail(f"no droopkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import droopkit

    if Path(droopkit.__file__).resolve().parent != SRC / "droopkit":
        fail(f"droopkit imported from {droopkit.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def measure_setup(workload, spec: dict, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        workload.clear_warmup()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            fail(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def warm_up(spec: dict) -> None:
    """The set-up's first operation in this process, so lazy imports are done."""
    import numpy as np

    from droopkit.cli import main
    from droopkit.droop_opt import solve_problem
    from workloads import GainSelect

    for argv in spec.get("cli", []):
        if main(argv) != 0:
            fail(f"warm-up {argv[0]} failed")
    if "solve" in spec:
        prob = GainSelect.problem(np.array(spec["solve"]))
        if solve_problem(prob, backend="oracle").status == "optimal":
            try:
                GainSelect.solve_bnb(prob)
            except RuntimeError:
                pass


def run_passes(workload, budget: float, traced: bool) -> tuple[list, list]:
    """Repeat passes while another one is expected to end no later than half
    a pass after ``budget`` seconds.

    Traced runs alternate untraced and traced passes, so that both see the
    same machine state; returns (untraced, traced).
    """
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import PassResult

    tracer = Tracer() if traced else None
    plain, spanned, longest = [], [], 0.0
    start = time.perf_counter()
    while not plain or (traced and not spanned) or (
        time.perf_counter() - start + longest / 2 <= budget
    ):
        result = PassResult()
        if traced and len(spanned) < len(plain):
            tracer.clear()
            tracer.patch()
            try:
                workload.operate(result, tracer)
            finally:
                tracer.unpatch()
            workload.verify(result)
            result.facts = layer_metrics(tracer.spans(), result.facts)
            spanned.append(result)
        else:
            workload.operate(result, None)
            workload.verify(result)
            plain.append(result)
        longest = max(longest, result.wall_s)
    return plain, spanned


def _reference(name: str) -> dict:
    return json.loads((HERE / "reference.json").read_text()).get(name, {})


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "droopkit").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(name: str, seed: int, tiny: bool, counts: dict, passes: list) -> list[str]:
    """Exact counts must repeat between passes and between runs of one seed.

    Counts of earlier runs are kept in ``.bench_work/counts.json`` under the
    workload, seed, size and a digest of the package sources.
    """
    problems = [
        f"{metric} differs between passes: {value} vs {result.facts[metric]}"
        for result in passes[1:]
        for metric, value in counts.items()
        if result.facts[metric] != value
    ]
    key = f"{name}/{seed}/{'tiny' if tiny else 'full'}/{_source_digest()}"
    store = WORK / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        problems += [
            f"{metric} differs from an earlier run of {key}: {known[key][metric]} vs {value}"
            for metric, value in counts.items()
            if metric in known[key] and known[key][metric] != value
        ]
    else:
        known[key] = counts
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    ref = _reference(name)
    if not tiny and seed == ref.get("seed"):
        problems += [
            f"{metric} is {counts.get(metric)}, reference {value}"
            for metric, value in ref.get("counts", {}).items()
            if counts.get(metric) != value
        ]
    return problems


def check_digests(name: str, seed: int, tiny: bool, first) -> list[str]:
    """Outputs at the default seed must match the digests in reference.json."""
    ref = _reference(name)
    if tiny or seed != ref.get("seed"):
        return []
    return [
        f"{fname} digest {first.digests.get(fname)} != reference {digest}"
        for fname, digest in ref.get("digests", {}).items()
        if first.digests.get(fname) != digest
    ]


def traced_metrics(workload, args, seed, base, passes, named) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, printed, and count problems."""
    from layers import EXACT, PER_LAYER

    facts = workload.input_facts()
    for p in passes:
        p.facts.update(facts)
    counts = {m: passes[0].facts[m] for m in EXACT}
    problems = check_counts(args.workload, seed, args.tiny, counts, passes)
    untraced_s = statistics.median(p.wall_s for p in base)
    traced_s = statistics.median(p.wall_s for p in passes)
    values = {"trace.untraced_pass_s": untraced_s, "trace.overhead_s": traced_s - untraced_s}
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric in counts:
            value = counts[metric]
        else:
            value = statistics.median(p.facts[metric] for p in passes)
        metrics[metric] = {"value": value, "unit": unit}

    print("  per-layer, traced passes (times: medians over passes):")
    for metric, entry in metrics.items():
        print(f"    {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  tracing overhead: {traced_s - untraced_s:+.4g} s per pass, "
          f"base {untraced_s:.4g} s untraced")
    for metric, (value, unit, _) in workload.named_metrics(passes).items():
        plain = named[metric][0]
        print(f"    {metric:<24} traced {value:.6g} - untraced {plain:.6g} "
              f"= {value - plain:+.4g} {unit}")
    for problem in problems:
        print(f"benchmark: COUNT MISMATCH: {problem}", file=sys.stderr)
    return metrics, problems


def run_workload(args) -> int:
    import_package()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(workdir, seed, args.tiny)
        spec = workload.warmup_spec()
        setups = measure_setup(workload, spec, 2 if args.tiny else SETUP_REPEATS)
        workload.clear_warmup()
        warm_up(spec)
        base, passes = run_passes(workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = [f for p in base + passes for f in p.failures]
        failures += check_digests(args.workload, seed, args.tiny, workload.first)
        attempted = sum(p.attempted for p in base + passes)
        named = workload.named_metrics(base)
        named["setup_s"] = (statistics.median(setups), "s", len(setups))
        named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)

        print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
              f"size {'tiny' if args.tiny else 'full'}  passes {len(base)}"
              + (f" untraced + {len(passes)} traced" if args.trace else ""))
        for metric, (value, unit, n) in named.items():
            print(f"  {metric:<24} {value:>14.6g} {unit:<8} (n={n})")
        if args.trace:
            metrics, problems = traced_metrics(workload, args, seed, base, passes, named)
            failures += problems
        else:
            per_pass = [workload.named_metrics([p]) for p in base]
            metrics = {}
            for generic, own in HEADLINE[args.workload].items():
                print(f"  per pass {own}: " + " ".join(f"{m[own][0]:.6g}" for m in per_pass))
                value = named[own][0]
                if own in BEST_PASS:
                    value = BEST_PASS[own](m[own][0] for m in per_pass)
                    print(f"  best pass {own} {value:.6g} -> {generic}")
                metrics[generic] = {"value": value, "unit": E2E_UNITS[generic]}
            metrics["setup_s"] = {"value": named["setup_s"][0], "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print(f"  fail_share {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
        for f in failures[:20]:
            print(f"benchmark: FAILED: {f}", file=sys.stderr)
        print(f"  env {json.dumps(environment())}")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
        return 1 if failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Every workload, and ROADMAP's baseline table
# ---------------------------------------------------------------------------


def _v(results, workload, metric) -> float:
    """A per-layer value from the workload's traced run."""
    return results[workload][1]["metrics"][metric]["value"]


def _n(results, workload, metric) -> float:
    """A named end-to-end value from the workload's untraced run."""
    return results[workload]["named"][metric]


def _per_call(results, workload, total, calls, scale) -> float:
    return scale * _v(results, workload, total) / max(1.0, _v(results, workload, calls))


#: ROADMAP baseline rows: (row, baseline value, what this benchmark reports).
BASELINE = [
    ("full suite", "124 passed in 88 s",
     lambda r: "not a benchmark metric: run the tier-1 test command"),
    ("C7 year scan", "64 s of the suite",
     lambda r: f"{8760 / _n(r, 'year_adaptive', 'hours_per_s') + 8760 / _n(r, 'year_equal', 'hours_per_s'):.1f} s"
               " = 8760 h / hours_per_s, summed over year_adaptive and year_equal"),
    ("plan over 8760 h, adaptive", "51-56 s (331 reduction iterations)",
     lambda r: f"{8760 / _n(r, 'year_adaptive', 'hours_per_s'):.1f} s = 8760 h / hours_per_s"
               " [year_adaptive runs 2190 h]; market.reduction_iterations "
               f"{_v(r, 'year_adaptive', 'market.reduction_iterations'):.0f} on 2190 h"),
    ("plan over 8760 h, equal", "3.6 s (10216 iterations)",
     lambda r: f"{8760 / _n(r, 'year_equal', 'hours_per_s'):.2f} s = 8760 h / hours_per_s"
               " [year_equal]; market.reduction_iterations "
               f"{_v(r, 'year_equal', 'market.reduction_iterations'):.0f}"),
    ("solve_exact_oracle, n = 6", "7.7 ms (min of 5)",
     lambda r: f"{_n(r, 'gain_select', 'oracle_ms_p50_n6'):.2f} ms = oracle_ms_p50_n6"
               f" [gain_select]; all n: oracle_ms_p50 {_n(r, 'gain_select', 'oracle_ms_p50'):.2f} ms"),
    ("same, no tie-break", "3.5 ms",
     lambda r: f"one LP {_per_call(r, 'year_adaptive', 'droop_opt.lp_s', 'droop_opt.lp_calls', 1e3):.2f} ms"
               " = droop_opt.lp_s / droop_opt.lp_calls [year_adaptive]; droop_opt.lp_per_oracle "
               f"{_v(r, 'year_adaptive', 'droop_opt.lp_per_oracle'):.2f}"),
    ("HiGHS core inside linprog", "about 15 % of oracle time",
     lambda r: "needs spans inside the program (scipy wrapper vs HiGHS core), left to a later"
               f" change; linprog as a whole is {100 * _v(r, 'year_adaptive', 'droop_opt.lp_s') / _v(r, 'year_adaptive', 'droop_opt.oracle_s'):.0f} %"
               " of droop_opt.oracle_s [year_adaptive]"),
    ("build_milp, n = 6", "8.2 ms",
     lambda r: f"{_v(r, 'gain_select', 'droop_opt.build_milp_ms'):.2f} ms ="
               " droop_opt.build_milp_ms [gain_select, median over n = 2..6]"),
    ("B&B via solve_problem, n = 6", "65 ms, 15 nodes",
     lambda r: f"{_n(r, 'gain_select', 'bnb_ms_p50_n6'):.1f} ms = bnb_ms_p50_n6 [gain_select];"
               f" droop_opt.bnb_nodes {_v(r, 'gain_select', 'droop_opt.bnb_nodes'):.0f} over all n"),
    ("HiGHS MILP, n = 6", "2.9 s",
     lambda r: "excluded: run time not steady (15 feasible n = 3 instances: p50 4.7 s,"
               " max 29.7 s; one n = 4 instance 21.9 s)"),
    ("screen_all_contingencies, n = 6", "174 us",
     lambda r: f"{_v(r, 'year_equal', 'security.screen_us_p50'):.0f} us ="
               " security.screen_us_p50 [year_equal]"),
    ("exact_residual, n = 6", "35 us",
     lambda r: f"{_per_call(r, 'gain_select', 'droop_opt.exact_residual_s', 'droop_opt.exact_residual_calls', 1e6):.0f} us"
               " = droop_opt.exact_residual_s / droop_opt.exact_residual_calls [gain_select, all n]"),
    ("simulate, 30 s at dt = 1 ms", "0.11 s",
     lambda r: f"{_v(r, 'island_transient', 'dynamics.simulate_s') / 7:.3f} s ="
               " dynamics.simulate_s / 7 calls [island_transient]"),
    ("trajectory_to_csv on that output", "0.49 s (5.2 MB)",
     lambda r: f"{_v(r, 'island_transient', 'cli.trajectory_csv_s') / 7:.3f} s"
               f" ({_v(r, 'island_transient', 'cli.csv_bytes') / 7e6:.1f} MB) ="
               " cli.trajectory_csv_s and cli.csv_bytes / 7 calls [island_transient]"),
]


def run_all(args) -> int:
    """Each workload untraced and traced, in its own process, then the table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        results[name] = {"named": {}}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").splitlines()
            has_result = bool(lines) and lines[-1].startswith("{")
            print("\n".join(lines[:-1] if has_result else lines), flush=True)
            sys.stderr.write(proc.stderr)
            status |= proc.returncode != 0 or not has_result
            if not has_result:
                continue
            results[name][trace] = json.loads(lines[-1])
            if trace == 0:
                for line in lines[:-1]:
                    found = re.match(r"  (\w+)\s+(\S+) .*\(n=\d+\)$", line)
                    if found:
                        results[name]["named"][found.group(1)] = float(found.group(2))
    print("\nROADMAP baseline rows, as this benchmark measures them:")
    rows = []
    for row, baseline, measure in BASELINE:
        try:
            now = measure(results)
        except KeyError as exc:
            now, status = f"missing {exc}", 1
        rows.append({"row": row, "baseline": baseline, "now": now})
        print(f"  {row:<34} {baseline:<36} | {now}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": args.seconds, "results": results,
             "baseline": rows}, indent=1) + "\n")
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--out", help="with every workload: write the results as JSON here")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
