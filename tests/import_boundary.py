"""Check which scipy modules droopkit's commands load, in a fresh interpreter.

Run from the root of a checkout::

    PYTHONPATH=src python tests/import_boundary.py

scipy is imported at the first LP or MILP solve and at the first H2
Lyapunov solve, not with the package.  This program imports ``droopkit`` and
``droopkit.cli``, then runs ``check-n1``, ``simulate``, an equal-gain
``market-loop``, ``h2`` and ``solve-droops`` on the island fixture in a
temporary directory, one after another in this process, and checks
``sys.modules`` after each step:

* the import and the three commands that never solve load no ``scipy*``;
* ``h2`` loads ``scipy.linalg`` but not ``scipy.optimize``;
* ``solve-droops`` loads scipy's HiGHS binding.

It prints one line per breach and exits 1 if there is any.  A pytest process
has scipy imported already, so the check runs as a program of its own.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BINDING = "scipy.optimize._highspy._core"


def main() -> int:
    import droopkit  # noqa: F401
    import droopkit.cli
    from droopkit import fixtures

    breaches = []

    def expect(step: str, loaded: tuple[str, ...], absent: tuple[str, ...]) -> None:
        """Each of ``loaded`` is in ``sys.modules``; no module in or under ``absent`` is."""
        breaches.extend(f"after {step}: {name} is not loaded"
                        for name in loaded if name not in sys.modules)
        for name in absent:
            found = sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
            if found:
                breaches.append(f"after {step}: {len(found)} modules of {name} loaded, "
                                f"e.g. {', '.join(found[:3])}")

    expect("import droopkit, droopkit.cli", (), ("scipy",))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        grid, hours = str(work / "grid.json"), str(work / "hours.csv")
        (work / "grid.json").write_text(json.dumps(droopkit.cli.grid_to_json(
            fixtures.island_scenario())))
        (work / "hours.csv").write_text(droopkit.cli.hours_to_csv(
            fixtures.year_hours(n_hours=6, seed=2)))
        # (argv, exit code, modules that must be loaded after it, modules that must not);
        # the island fixture's equal gains are N-1 insecure, so check-n1 exits 3
        steps = [
            (["check-n1", "--grid", grid, "--out", str(work / "n1.csv")], 3, (), ("scipy",)),
            (["simulate", "--grid", grid, "--t-end", "0.5", "--event", "outage:UK@0.1",
              "--out", str(work / "traj.csv")], 0, (), ("scipy",)),
            (["market-loop", "--grid", grid, "--hours", hours, "--policy", "equal",
              "--out", str(work / "equal")], 0, (), ("scipy",)),
            (["h2", "--grid", grid, "--out", str(work / "h2.json")], 0,
             ("scipy.linalg",), ("scipy.optimize",)),
            (["solve-droops", "--grid", grid, "--out", str(work / "droops.json")], 0,
             (BINDING,), ()),
        ]
        for argv, code, loaded, absent in steps:
            rc = droopkit.cli.main(argv)
            if rc != code:
                breaches.append(f"{argv[0]} exited {rc}, expected {code}")
            expect(argv[0], loaded, absent)

    for breach in breaches:
        print(f"import boundary: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
