"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around the module-level functions through which
droopkit's layers call one another.  The functions are replaced at run time
by thin wrappers (``Tracer.patch``), so no file of the package changes; the
benchmark's own direct calls into the package are recorded with
``Tracer.span``.  Every span keeps its name, start, end, parent and an
optional note taken from the call's arguments or result.  Spans stay in
memory until the benchmark reads them at the end of a pass.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Module globals wrapped in traced runs, per module.  Span names are
#: ``<module>.<function>``; the callers look each name up in these module
#: namespaces at call time, so replacing the global intercepts the call.
LAYER_FUNCTIONS = {
    "cli": ("load_grid", "hours_from_csv", "plan", "simulate", "trajectory_to_csv"),
    "market": ("plan_hour", "clear_market", "solve_problem", "screen_all_contingencies"),
    "droop_opt": ("solve_exact_oracle", "linprog", "build_milp", "exact_residual"),
    "dynamics": ("kron_reduction", "solve_continuous_lyapunov"),
}

#: What a span keeps of its call, per span name: (args, result) -> note.
NOTES: dict[str, Callable[[tuple, Any], Any]] = {
    "market.plan_hour": lambda args, rec: rec.iterations,
    "cli.simulate": lambda args, traj: traj.time.size - 1,
    "cli.trajectory_to_csv": lambda args, text: len(text),
    "droop_opt.solve_exact_oracle": lambda args, sol: args[0],
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    note: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread in preallocated parallel lists."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._notes: list[Any] = []
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._notes.append(None)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, note: Any = None) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()
        self._notes[idx] = note

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def spans(self) -> list[Span]:
        return [
            Span(*fields)
            for fields in zip(self._names, self._starts, self._ends, self._parents, self._notes)
        ]

    def clear(self) -> None:
        for lst in (self._names, self._starts, self._ends, self._parents, self._notes):
            lst.clear()
        self._stack = [-1]

    # -- run-time wrapping of module globals --------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note_of = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, None if note_of is None or result is None else note_of(args, result))

        return traced

    def patch(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS; undo with ``unpatch``."""
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"droopkit.{module_name}")
            for attr in functions:
                fn = getattr(module, attr)
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))

    def unpatch(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
