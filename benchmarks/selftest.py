"""Tiny-size self-test of the benchmark.

Run from the root of a checkout (about a minute)::

    python3 benchmarks/selftest.py

It checks that every workload, traced and untraced, prints every metric of
``BENCHMARK.json`` with its unit at two seeds; that another seed changes the
generated inputs but not the metric names; and that the benchmark exits
non-zero, printing no result, where the package sources are missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SEEDS = (1, 2)

#: The generated inputs of each workload, as bytes.
INPUTS = {
    "year_adaptive": lambda w: w.hours_csv.read_bytes(),
    "year_equal": lambda w: w.hours_csv.read_bytes(),
    "gain_select": lambda w: b"".join(p.tobytes() for p in w.instances),
    "island_transient": lambda w: repr(w.events).encode()
    + b"".join(x.tobytes() for x in w.gain_sets),
}


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def check_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace, units in expected.items():
                proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--tiny")
                where = f"{workload} seed {seed} trace {trace}"
                assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
                result = json.loads(proc.stdout.splitlines()[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
                assert result["correct"] and result["failed"] == 0, f"{where}: {proc.stderr}"
                assert result["attempted"] >= 1, where
                got = {name: entry["unit"] for name, entry in result["metrics"].items()}
                assert got == units, f"{where}: metrics {sorted(set(got) ^ set(units))}"
                assert all(math.isfinite(e["value"]) for e in result["metrics"].values()), where
                print(f"ok  {where}", flush=True)


def check_inputs(spec: dict) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            digests = []
            for seed in (*SEEDS, SEEDS[0]):
                workdir = Path(tmp) / f"{workload}-{len(digests)}"
                workdir.mkdir()
                inputs = INPUTS[workload](WORKLOADS[workload](workdir, seed, True))
                digests.append(hashlib.sha256(inputs).hexdigest())
            assert digests[0] == digests[2], f"{workload}: one seed gave two inputs"
            assert digests[0] != digests[1], f"{workload}: two seeds gave one input"
            print(f"ok  {workload} inputs follow the seed", flush=True)


def check_bare_directory(spec: dict) -> None:
    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  refuses to run without the package sources", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    check_runs(spec)
    check_inputs(spec)
    check_bare_directory(spec)
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
