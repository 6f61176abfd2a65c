"""Check which scipy modules droopkit's commands load, in a fresh interpreter.

Run from the root of a checkout::

    PYTHONPATH=src python tests/import_boundary.py

scipy is imported at the first LP or MILP solve, not with the package; the
H2 norm is a closed form that needs none, and the LP path loads scipy's HiGHS
binding without the ``scipy.optimize`` package.  This program imports
``droopkit`` and ``droopkit.cli`` and resolves ``droop_opt.linprog`` as the
benchmark tracer does, then runs ``check-n1``, ``simulate``, an equal-gain
``market-loop``, ``h2``, an adaptive ``market-loop``, ``solve-droops`` with
the oracle and with ``--backend bnb``, and ``solve-droops --backend highs`` on
the island fixture in a temporary directory, one after another in this
process, and checks ``sys.modules`` after each step:

* the import, the name lookup and the four commands that never solve an LP
  (``h2`` among them) load no ``scipy*``;
* the adaptive ``market-loop`` loads scipy's HiGHS binding, and it and the
  oracle and B&B ``solve-droops`` load no other ``scipy.optimize`` module
  (the binding's own submodules aside) and no ``scipy.sparse``;
* ``solve-droops --backend highs`` loads ``scipy.optimize`` and
  ``scipy.sparse``, and ``scipy.optimize`` reuses the binding already loaded.

It prints one line per breach and exits 1 if there is any.  A pytest process
has scipy imported already, so the check runs as a program of its own.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BINDING = "scipy.optimize._highspy._core"


def within(module: str, package: str) -> bool:
    """Whether ``module`` is ``package`` or a module under it."""
    return module == package or module.startswith(package + ".")


#: What the LP path must not load: the binding is the one scipy.optimize module it uses.
LP_ABSENT = ("scipy.optimize", "scipy.sparse")


def main() -> int:
    import droopkit  # noqa: F401
    import droopkit.cli
    from droopkit import fixtures

    breaches = []

    def expect(step: str, loaded: tuple[str, ...], absent: tuple[str, ...]) -> None:
        """Each of ``loaded`` is in ``sys.modules``; no module in or under ``absent`` is,
        except the binding and its submodules."""
        breaches.extend(f"after {step}: {name} is not loaded"
                        for name in loaded if name not in sys.modules)
        for name in absent:
            found = sorted(m for m in sys.modules if within(m, name) and not within(m, BINDING))
            if found:
                breaches.append(f"after {step}: {len(found)} modules of {name} loaded, "
                                f"e.g. {', '.join(found[:3])}")

    expect("import droopkit, droopkit.cli", (), ("scipy",))
    getattr(droopkit.droop_opt, "linprog")  # the tracer wraps it by this name
    expect("resolving droop_opt.linprog", (), ("scipy",))
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
            (["h2", "--grid", grid, "--out", str(work / "h2.json")], 0, (), ("scipy",)),
            (["market-loop", "--grid", grid, "--hours", hours, "--policy", "adaptive",
              "--out", str(work / "adaptive")], 0, (BINDING,), LP_ABSENT),
            (["solve-droops", "--grid", grid, "--out", str(work / "droops.json")], 0,
             (BINDING,), LP_ABSENT),
            (["solve-droops", "--grid", grid, "--backend", "bnb",
              "--out", str(work / "bnb.json")], 0, (BINDING,), LP_ABSENT),
            (["solve-droops", "--grid", grid, "--backend", "highs",
              "--out", str(work / "highs.json")], 0, ("scipy.optimize", "scipy.sparse"), ()),
        ]
        binding = None
        for argv, code, loaded, absent in steps:
            rc = droopkit.cli.main(argv)
            step = " ".join([argv[0], *(argv[i + 1] for i, flag in enumerate(argv)
                                        if flag in ("--policy", "--backend"))])
            if rc != code:
                breaches.append(f"{step} exited {rc}, expected {code}")
            expect(step, loaded, absent)
            binding = binding or sys.modules.get(BINDING)
        from scipy.optimize._highspy import _core

        if _core is not binding:
            breaches.append("scipy.optimize loaded a second HiGHS binding")

    for breach in breaches:
        print(f"import boundary: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
