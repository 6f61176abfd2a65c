"""Selection of inverse droop gains under N-1 post-fault power limits.

Three solver routes are provided and cross-validate each other:

* ``solve_exact_oracle`` — the nonconvex post-fault constraints become exact
  linear rows after multiplying through by the surviving stiffness, so the
  whole problem is a plain LP.  Globally optimal, fast, and the ground truth
  for everything else.  A closed-form screen reports an instance infeasible
  without the LP when some outage's post-fault shares cannot sum to one
  within the survivors' limits and gain floors.
* ``build_milp`` + backend "highs" — the digit-expansion MILP: the reciprocal
  of surviving stiffness and its products with the gains are linearized by
  expanding one factor into decimal digits selected by one-hot binaries.
  Solved by an external MILP solver.
* backend "bnb" — built-in branch and bound.  Because an integral digit
  selection pins each gain to the 10**psi grid and makes every linearized row
  exact, the MILP optimum equals the best grid-restricted solution of the
  exact problem; the built-in solver therefore branches on the grid
  integrality of the gains themselves over the exact-LP relaxation, which
  gives far stronger bounds than branching on single digit binaries, and it
  never builds the MILP.

scipy loads at first use, through two cached loaders, so a caller that never
solves (the N-1 screen, the equal-gain market loop) never loads it.  The LP
path (the oracle and B&B) needs only scipy's HiGHS binding, which ``_scipy``
loads from its file without the ``scipy.optimize`` package; ``_milp_tools``
imports ``scipy.optimize`` and ``scipy.sparse`` for MILP assembly and the
"highs" backend only.  Every LP goes to the one HiGHS instance ``_solver``
builds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .core import DroopAssignment, GridScenario, ScenarioError, _readonly
from .security import VIOLATION_TOL, post_fault_excess

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_ALPHA = 600.0
DEFAULT_PSI = -3

#: Exact-limit excess (pu) treated as noise: the N-1 screen's own tolerance.
_FEAS_TOL = VIOLATION_TOL


class StiffnessError(ScenarioError):
    """Stiffness target unreachable: alpha does not exceed the sum of the
    lower bounds on the inverse gains."""


class SolverError(RuntimeError):
    """An LP or MILP solve failed, or branch and bound hit its node limit."""


#: Full name of scipy's private HiGHS binding, the one scipy module the LP path uses.
_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """scipy's HiGHS binding, loaded without running ``scipy.optimize/__init__``.

    The extension file is found in ``<scipy>/optimize/_highspy`` and registered
    in ``sys.modules`` under its full name before it runs (and removed if that
    fails), so a later ``import scipy.optimize`` reuses it.  A name already in
    ``sys.modules`` (loaded, or blocked with None) or a file not found there
    falls back to the plain import, and so to its error.
    """
    if _BINDING not in sys.modules:
        import scipy

        paths = [os.path.join(path, "optimize", "_highspy") for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(_BINDING, paths)
        if spec is not None:
            try:
                binding = sys.modules[_BINDING] = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(binding)
            except BaseException:
                sys.modules.pop(_BINDING, None)
                raise
            return binding
    return importlib.import_module(_BINDING)


@cache
def _scipy() -> SimpleNamespace:
    """The LP path's solver pieces, loaded at the first call.

    ``highs`` is scipy's private HiGHS binding, loaded on its own by
    ``_load_binding`` (about 13 scipy modules instead of the 321 of
    ``scipy.optimize``), and ``options`` the options
    ``linprog(method="highs")`` sets, every other option at its default.
    A scipy without the binding raises ``SolverError``.
    """
    try:
        highs = _load_binding()
    except ImportError as exc:
        raise SolverError(f"LP and MILP solves need scipy's HiGHS binding: {exc}") from exc
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return SimpleNamespace(highs=highs, options=options)


@cache
def _milp_tools() -> SimpleNamespace:
    """scipy's MILP pieces, imported at the first MILP assembly or "highs" solve.

    ``milp``, ``Bounds`` and ``LinearConstraint`` come from ``scipy.optimize``
    and ``sparse`` is ``scipy.sparse``; a failed import raises ``SolverError``.
    """
    try:
        import scipy.sparse as sparse
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:
        raise SolverError(f"MILP solves need scipy.optimize and scipy.sparse: {exc}") from exc
    return SimpleNamespace(milp=milp, Bounds=Bounds, LinearConstraint=LinearConstraint,
                           sparse=sparse)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, with scipy imported at the first call.

    No solve calls it: it is only a name for the benchmark tracer to wrap.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


@dataclass(frozen=True, slots=True)
class DroopProblem:
    """One instance of the gain-selection problem, all powers in per-unit."""

    alpha: float
    x_min: np.ndarray
    p_ref: np.ndarray
    p_max: np.ndarray
    psi: int = DEFAULT_PSI
    eta: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_min", _readonly(self.x_min))
        object.__setattr__(self, "p_ref", _readonly(self.p_ref))
        object.__setattr__(self, "p_max", _readonly(self.p_max))
        if not math.isfinite(self.alpha):
            raise ScenarioError(f"alpha={self.alpha:g} must be finite")
        for name in ("x_min", "p_ref", "p_max"):  # a few entries: faster than np.isfinite
            if not all(map(math.isfinite, getattr(self, name).tolist())):
                raise ScenarioError(f"{name} entries must be finite")
        if not self.x_min.size == self.p_ref.size == self.p_max.size:
            raise ScenarioError("x_min, p_ref and p_max must have equal length")
        if self.n < 2:
            raise ScenarioError("gain selection needs at least 2 converters")
        if np.any(self.x_min <= 0) or np.any(self.p_max <= 0):
            raise ScenarioError("x_min and p_max must be positive")
        if self.alpha <= float(self.x_min.sum()):
            raise StiffnessError(
                f"stiffness target unreachable: alpha={self.alpha:g} does not exceed "
                f"sum of gain lower bounds {float(self.x_min.sum()):g}"
            )
        # the LP's limit rows are bounded by alpha times p_max - p or p_max + p
        largest_limit = float(self.p_max.max()) + float(np.abs(self.p_ref).max())
        if not math.isfinite(self.alpha * largest_limit):
            raise ScenarioError(f"alpha={self.alpha:g} times a post-fault limit overflows")
        if self.eta is None:
            object.__setattr__(self, "eta", max(0, math.ceil(math.log10(self.alpha))))
        if not self.psi <= 0 <= self.eta:
            raise ScenarioError("digit places must satisfy psi <= 0 <= eta")
        # 10.0**psi is 0.0 from psi = -324 on; alpha must stay a finite count of quanta
        if self.psi < -323 or not math.isfinite(self.alpha / 10.0**self.psi):
            raise ScenarioError(f"psi={self.psi} is too fine a digit grid for alpha={self.alpha:g}")

    @property
    def n(self) -> int:
        return self.x_min.size

    @property
    def x_upper(self) -> np.ndarray:
        """Largest each gain can be while the others sit at their bounds."""
        return self.alpha - (float(self.x_min.sum()) - self.x_min)

    @property
    def s_bar(self) -> np.ndarray:
        """Upper bound on the reciprocal of surviving stiffness, per outage."""
        return 1.0 / (float(self.x_min.sum()) - self.x_min)


def build_exact_problem(
    scenario: GridScenario, alpha: float = DEFAULT_ALPHA, psi: int = DEFAULT_PSI
) -> DroopProblem:
    """Problem instance for a scenario at the given stiffness target."""
    return DroopProblem(alpha=float(alpha), x_min=scenario.x_min, p_ref=scenario.p_ref,
                        p_max=scenario.p_max, psi=psi)


def pair_distance(x: np.ndarray) -> float:
    """Objective value: sum of pairwise absolute gaps between gains."""
    x = np.asarray(x, dtype=float)
    diffs = np.abs(x[:, None] - x[None, :])
    index = np.arange(x.size)
    return float(diffs[index[:, None] < index].sum())  # the upper triangle, row by row


def exact_residual(x: np.ndarray, problem: DroopProblem) -> float:
    """Worst violation (pu) of the exact post-fault limits at assignment x."""
    excess = post_fault_excess(np.asarray(x, dtype=float), problem.p_ref, problem.p_max,
                               problem.alpha)
    return max(float(excess.max()), 0.0)  # in this order a NaN excess stays NaN


def equal_gains_test(alpha: float, x_min: np.ndarray, p_ref: np.ndarray, p_max: np.ndarray):
    """The oracle's test of ``alpha/n`` at ``p_ref`` stacked on leading axes: ``(alpha/n, ok,
    residual)``, ``ok`` within the bounds and where ``exact_residual`` (NaN fails) <= _FEAS_TOL."""
    equal = np.full(x_min.size, alpha / x_min.size)
    residual = post_fault_excess(equal, p_ref, p_max, alpha).max(axis=(-2, -1))
    return equal, np.all(equal >= x_min - 1e-12) & (residual <= _FEAS_TOL), residual


@dataclass(frozen=True, slots=True)
class DroopSolution:
    """Outcome of a gain-selection solve."""

    status: str  # "optimal" | "infeasible" | "precision-limited"
    assignment: DroopAssignment | None
    objective: float | None
    residual: float
    backend: str = ""
    note: str = ""


# ---------------------------------------------------------------------------
# Exact LP oracle
# ---------------------------------------------------------------------------


def _limit_rows(n: int):
    """The N-1 limits ``|p_i + z_ki p_k| <= p_max,i`` as flat arrays ``(k, i, a, b)``.

    Per ordered pair (k, i != k), outage-major, an upper row ``a = p_k, b =
    p_max,i - p_i`` precedes a lower row ``a = -p_k, b = p_max,i + p_i``; ``a``
    and ``b`` are given as indices into ``_lp_values``.  On the share ``z_ki``
    a row reads ``a z_ki <= b``; multiplied through by the surviving
    stiffness, on the gains it reads ``a x_i + b x_k <= b alpha``.
    """
    k, i = np.nonzero(~np.eye(n, dtype=bool))
    a = np.column_stack([k, n + k]).ravel()
    b = np.column_stack([2 * n + i, 3 * n + i]).ravel()
    return np.repeat(k, 2), np.repeat(i, 2), a, b


def _lp_values(problem: DroopProblem) -> np.ndarray:
    """``(p, -p, p_max - p, p_max + p, 1, -1)``: every entry of the exact LP's matrix."""
    p, pmax = problem.p_ref, problem.p_max
    return np.concatenate((p, -p, pmax - p, pmax + p, (1.0, -1.0)))


def _epigraph_rows(n: int):
    """Rows ``s x_i - s x_c - t_m <= 0`` (s = 1, then -1) as flat arrays ``(i, c, m, s)``.

    Together they give ``|x_i - x_c| <= t_m`` for the m-th pair i < c, row-major.
    """
    i, c = np.triu_indices(n, k=1)
    m = np.arange(i.size)
    return np.repeat(i, 2), np.repeat(c, 2), np.repeat(m, 2), np.tile([1.0, -1.0], i.size)


@cache
def _lp_pattern(n: int, face: bool):
    """The matrix pattern of ``_exact_lp`` for n gains, with or without the face row.

    Returns ``(source, bound, col, index, start, c)``.  The entries run in
    (column, row) order, as in CSC: entry e sits in column ``col[e]`` and row
    ``index[e]`` and holds ``_lp_values(problem)[source[e]]``.  The limit
    rows' upper bounds are alpha times the values at ``bound``, ``start``
    holds the column starts with every entry kept, and ``c`` is the cost.
    All are read-only.
    """
    lk, li, la, lb = _limit_rows(n)
    ei, ec, em, es = _epigraph_rows(n)
    one, minus_one = 4 * n, 4 * n + 1  # where _lp_values holds 1 and -1
    nv = n + n * (n - 1) // 2
    limit, epigraph = np.arange(la.size), la.size + np.arange(es.size)
    cols = [li, lk, ei, ec, n + em]
    rows = [limit, limit, epigraph, epigraph, epigraph]
    source = [la, lb, np.where(es > 0, one, minus_one), np.where(es > 0, minus_one, one),
              np.full(es.size, minus_one)]
    if face:
        cols.append(np.arange(n, nv))
        rows.append(np.full(nv - n, la.size + es.size))
        source.append(np.full(nv - n, one))
    cols.append(np.arange(n))
    rows.append(np.full(n, la.size + es.size + face))
    source.append(np.full(n, one))
    col, row, source = (np.concatenate(parts) for parts in (cols, rows, source))
    order = np.lexsort((row, col))
    start = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=nv), out=start[1:])
    c = np.zeros(nv)
    c[n:] = 1.0
    pattern = (source[order], lb, col[order], row[order].astype(np.int32), start, c)
    for array in pattern:
        array.flags.writeable = False
    return pattern


def _exact_lp(problem: DroopProblem, face: float | None = None):
    """The exact problem as an LP over (x, t), in the column-wise form ``_highs_lp`` takes.

    Multiplying each post-fault limit through by the (strictly positive)
    surviving stiffness turns it into two linear rows; the absolute-value
    objective is lifted with one epigraph variable per converter pair.  The
    ``<=`` rows are the limits, then the epigraph rows, then, when ``face`` is
    given, the tie-break row ``sum(t) <= face``; the stiffness-sum row comes
    last.  Returns ``(c, start, index, value, row_lo, row_hi, col_lo, col_hi)``:
    the matrix in CSC sorted by (column, row) with no stored zeros, exactly as
    ``linprog`` hands it to HiGHS, and ``±inf`` (HiGHS's ``kHighsInf``) for a
    missing bound.
    Only the values are filled per call; the pattern is ``_lp_pattern``'s.
    """
    n, alpha = problem.n, problem.alpha
    source, bound, col, index, start, c = _lp_pattern(n, face is not None)
    values = _lp_values(problem)
    value = values[source]
    keep = value != 0.0
    if not keep.all():  # dropping zeros after the sort keeps it: no (column, row) repeats
        value, index = value[keep], index[keep]
        start = np.zeros_like(start)
        np.cumsum(np.bincount(col[keep], minlength=c.size), out=start[1:])

    n_rows = bound.size + n * (n - 1) + (face is not None) + 1  # limit, epigraph, face, sum
    row_lo = np.full(n_rows, -math.inf)
    row_hi = np.zeros(n_rows)
    row_lo[-1] = row_hi[-1] = alpha
    row_hi[:bound.size] = values[bound] * alpha
    if face is not None:
        row_hi[-2] = face
    col_lo, col_hi = np.zeros(c.size), np.full(c.size, math.inf)
    col_lo[:n], col_hi[:n] = problem.x_min, problem.x_upper
    return c, start, index, value, row_lo, row_hi, col_lo, col_hi


#: ``linprog``'s feasibility check on a reported optimum: sqrt(tol) * 10 at tol = 1e-9.
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


@cache
def _solver():
    """The HiGHS instance that solves every LP under ``_scipy``'s options, built at first use.

    One instance serves every LP: ``passModel`` replaces its model and clears
    the previous model's basis and solution, so no LP sees the one before it.
    Solves therefore must not run in two threads at once.
    """
    highs = _scipy().highs._Highs()
    highs.passOptions(_scipy().options)
    return highs


def _highs_lp(c, start, index, value, row_lo, row_hi, col_lo, col_hi, what: str):
    """Minimize ``c @ x`` over ``row_lo <= a @ x <= row_hi``, ``col_lo <= x <= col_hi``.

    ``a`` is given column-wise by its CSC arrays ``start``, ``index`` and
    ``value``, and infinite bounds are ``±inf``.  The arrays go as they are to
    ``_solver``, whose options are the ones ``linprog(method="highs")`` sets,
    and an optimum is kept only if it passes ``linprog``'s feasibility check,
    so the answer is ``linprog``'s without its per-call wrapper work.
    Returns ``(x, fun)`` at an optimum and None when HiGHS reports the LP
    infeasible; any other outcome raises ``SolverError`` naming ``what`` and
    the model status.
    """
    h = _scipy().highs
    highs = _solver()
    continuous = np.zeros(c.size, dtype=np.int32)  # HiGHS rejects an empty integrality array
    passed = highs.passModel(c.size, row_lo.size, value.size, h.MatrixFormat.kColwise,
                             h.ObjSense.kMinimize, 0.0, c, col_lo, col_hi, row_lo, row_hi,
                             start, index, value, continuous)
    if passed == h.HighsStatus.kError:
        status = h.HighsModelStatus.kModelError
    else:
        ran = highs.run() != h.HighsStatus.kError
        status = highs.getModelStatus()
        if ran and status == h.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x, rows = np.array(solution.col_value), np.array(solution.row_value)
            fun = highs.getInfo().objective_function_value
            tol = _LP_CHECK_TOL
            if not (
                math.isnan(fun) or np.isnan(x).any() or np.isnan(rows).any()
                or (x < col_lo - tol).any() or (x > col_hi + tol).any()
                or (row_hi - rows < -tol).any() or (rows - row_lo < -tol).any()
            ):
                return x, fun
            raise SolverError(f"{what} failed: HiGHS model status {status.name}, but the "
                              f"point misses a bound or row by more than {tol:.2E}")
    # the model statuses ``linprog`` reports as infeasible (its status 2)
    if status in (h.HighsModelStatus.kInfeasible, h.HighsModelStatus.kModelError):
        return None
    raise SolverError(f"{what} failed with HiGHS model status {status.name}")


#: Least excess, in the LP rows' own units, that the closed-form screen must
#: show some row keeps at every point before it calls an instance infeasible:
#: ten times HiGHS's feasibility tolerance of 1e-7, so a borderline instance
#: still goes to the LP.
_SCREEN_MARGIN = 1e-6


def _shares_out_of_reach(problem: DroopProblem) -> bool:
    """Whether some outage leaves its survivors no post-fault shares, so the LP is infeasible.

    When converter k with ``p_k != 0`` trips, survivor i takes the share
    ``z_ki = x_i / (alpha - x_k)`` of ``p_k``.  The shares sum to 1, each is
    at least ``x_min,i / (alpha - x_min,k)``, and the limit rows cap each at
    ``(p_max,i - sign(p_k) p_i) / |p_k|``; caps that sum to less than 1, or a
    cap below its floor, leave no gains.  Both tests are multiplied through by
    ``|p_k|`` (a subnormal set-point would overflow a cap).  A shortfall times
    the mean gain floor of the survivors bounds from below the excess of some
    LP row at every point, and only one above ``_SCREEN_MARGIN`` counts.
    """
    p, p_max, x_min = problem.p_ref, problem.p_max, problem.x_min
    survivor = ~np.eye(problem.n, dtype=bool)
    load = np.abs(p)
    headroom = p_max - np.sign(p)[:, None] * p  # [k, i]: |p_k| times the cap on z_ki
    floor = load[:, None] * (x_min / (problem.alpha - x_min)[:, None])
    shortfall = np.maximum(
        load - headroom.sum(axis=1, where=survivor),
        np.max(floor - headroom, axis=1, where=survivor, initial=-np.inf))
    mean_floor = (float(x_min.sum()) - x_min) / (problem.n - 1)
    return bool(np.any(shortfall * mean_floor > _SCREEN_MARGIN))


def solve_exact_oracle(problem: DroopProblem, tie_break: bool = True) -> DroopSolution:
    """Globally optimal solve of the exact gain-selection problem.

    The all-equal point ``alpha/n`` is the unique zero of the objective, so
    when it is within bounds and N-1 secure it is returned without an LP, and
    an instance that ``_shares_out_of_reach`` shows infeasible is reported so
    without one.  Otherwise, among alternate optima a secondary solve
    minimizes an index-weighted sum of the gains over the optimal face, so
    repeated runs and symmetric instances yield one reproducible vertex.
    """
    n = problem.n
    equal, ok, residual = equal_gains_test(problem.alpha, problem.x_min, problem.p_ref,
                                           problem.p_max)
    if ok:
        return DroopSolution("optimal", DroopAssignment(equal), 0.0, float(residual),
                             backend="oracle")

    first = None
    if not _shares_out_of_reach(problem):
        lp = _exact_lp(problem)
        first = _highs_lp(*lp, what="oracle LP")
    if first is None:
        return DroopSolution("infeasible", None, None, 0.0, backend="oracle", note=(
            f"no gains summing to alpha={problem.alpha:.12g} keep every post-fault flow within p_max"))

    x = first[0][:n]
    if tie_break:
        fstar = float(lp[0] @ first[0])
        face_tol = 1e-9 * max(1.0, abs(fstar))
        c2 = np.zeros_like(lp[0])
        c2[:n] = 0.5 ** np.arange(n)
        tie_lp = _exact_lp(problem, face=fstar + face_tol)[1:]
        try:
            second = _highs_lp(c2, *tie_lp, what="oracle tie-break LP")
        except SolverError:
            second = None
        # keep the refined vertex only if it stays on the optimal face
        if second is not None and pair_distance(second[0][:n]) <= pair_distance(x) + face_tol:
            x = second[0][:n]

    x = np.clip(x, problem.x_min, problem.x_upper)
    return DroopSolution("optimal", DroopAssignment(x), pair_distance(x),
                         exact_residual(x, problem), backend="oracle")


# ---------------------------------------------------------------------------
# Digit-expansion MILP
# ---------------------------------------------------------------------------


def digit_expansion(value: float, psi: int, eta: int) -> list[int]:
    """Decimal digits of a grid value, one per place from 10**psi to 10**eta."""
    units = int(round(value / 10.0**psi))
    if abs(units * 10.0**psi - value) > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"{value!r} is not representable on the 10^{psi} grid")
    digits = []
    for place in range(psi, eta + 1):
        digits.append((units // 10 ** (place - psi)) % 10)
    if units // 10 ** (eta + 1 - psi) != 0:
        raise ValueError(f"{value!r} overflows the 10^{eta} top place")
    return digits


class _MilpLayout:
    """Column order of the digit-expansion MILP.

    Each variable family is an integer array of column indices in the
    family's own shape, and the families below are declared in column order.
    A digit block ``[..., a, b]`` is indexed by digit a and place b; the
    families ``sighat_alpha``, ``y_alpha`` and ``y_x`` are indexed by their
    owner first, ``z`` and ``sighat_x`` by outage k and survivor i.  A pair
    family has no column on its diagonal k == i: it holds ``num_vars``, one
    past the last column, so any use of it raises.
    """

    def __init__(self, n: int, psi: int, eta: int):
        self.places = list(range(psi, eta + 1))
        self.np_ = len(self.places)
        self.num_vars = 0
        survivor = ~np.eye(n, dtype=bool)
        block = (10, self.np_)
        self.x = self._take(n)
        self.alpha_k = self._take(n)
        self.sigma = self._take(n)
        z = self._take(n * (n - 1))
        self.sighat_alpha = self._take(n, *block)
        sighat_x = self._take(n * (n - 1), *block)
        self.t = self._take(n * (n - 1) // 2)
        self.y_alpha = self._take(n, *block)
        self.y_x = self._take(n, *block)
        self.z = np.full((n, n), self.num_vars)
        self.sighat_x = np.full((n, n, *block), self.num_vars)
        self.z[survivor], self.sighat_x[survivor] = z, sighat_x

    def _take(self, *shape: int) -> np.ndarray:
        """The next ``prod(shape)`` columns, in that shape."""
        cols = np.arange(self.num_vars, self.num_vars + math.prod(shape)).reshape(shape)
        self.num_vars += cols.size
        return cols


@dataclass
class MilpModel:
    """Linear algebra of the digit-expansion MILP."""

    layout: _MilpLayout
    c: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray

    @property
    def num_variables(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.b_eq.size + self.b_ub.size

    @property
    def num_binaries(self) -> int:
        return int(self.integrality.sum())


def _tightened_bounds(problem: DroopProblem):
    """Valid variable ranges for the bilinear blocks.

    The post-fault limits already restrict each share z and hence each gain,
    so propagating them before building the model shrinks the relaxation and
    lets impossible digits be fixed to zero up front.
    """
    n = problem.n
    p, pmax, alpha = problem.p_ref, problem.p_max, problem.alpha
    xlo = problem.x_min.copy()
    xup = problem.x_upper.copy()
    alo = alpha - xup  # = sum of the other gain lower bounds
    ahi = alpha - xlo
    slo = 1.0 / ahi
    shi = 1.0 / alo

    # entry [k, i] bounds the share z of survivor i when converter k trips;
    # the post-fault limit |p_i + z p_k| <= pmax_i binds z only when p_k != 0
    pos, neg = (p > 0)[:, None], (p < 0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = (pmax - p) / p[:, None]
        lower = (-pmax - p) / p[:, None]
    z_lo = slo[:, None] * xlo
    z_hi = shi[:, None] * xup
    z_hi = np.where(pos, np.minimum(z_hi, upper), np.where(neg, np.minimum(z_hi, lower), z_hi))
    z_lo = np.where(pos, np.maximum(z_lo, lower), np.where(neg, np.maximum(z_lo, upper), z_lo))

    survivor = ~np.eye(n, dtype=bool)
    cap = np.min(z_hi / slo[:, None], axis=0, where=survivor, initial=np.inf)
    xup = np.maximum(xlo, np.minimum(xup, cap))
    alo = alpha - xup
    shi = 1.0 / alo
    z_hi = np.where(survivor, np.minimum(z_hi, shi[:, None] * xup), 0.0)
    z_lo = np.where(survivor, np.maximum(z_lo, slo[:, None] * xlo), 0.0)
    return xlo, xup, alo, ahi, slo, shi, z_lo, z_hi


class _Rows:
    """Sparse constraint rows gathered one at a time."""

    def __init__(self):
        self.r, self.c, self.v, self.rhs = [], [], [], []

    def add(self, cols, vals, rhs):
        self.r.extend([len(self.rhs)] * len(cols))
        self.c.extend(cols)
        self.v.extend(vals)
        self.rhs.append(rhs)

    def matrix(self, num_vars: int) -> sp.csr_matrix:
        shape = (len(self.rhs), num_vars)
        return _milp_tools().sparse.coo_matrix((self.v, (self.r, self.c)), shape=shape).tocsr()


def build_milp(problem: DroopProblem) -> MilpModel:
    """Assemble the digit-expansion MILP.

    The required blocks: the surviving-stiffness identity, one-hot decimal
    expansions of the stiffness and of each gain, disaggregated copies of the
    stiffness reciprocal with their activation bounds, the recovered linear
    share constraints, and the epigraph form of the pairwise-gap objective.
    On top of those, valid rows that any exact-feasible point satisfies
    (share sums, McCormick envelopes, and the exact linear rows of the
    oracle) are added to strengthen the relaxation; they do not change the
    integer optimum.
    """
    lay = _MilpLayout(problem.n, problem.psi, problem.eta)
    n = problem.n
    alpha = problem.alpha
    s_bar = problem.s_bar
    xlo, xup, alo, ahi, slo, shi, z_lo, z_hi = _tightened_bounds(problem)
    place_val = [10.0**b for b in lay.places]
    pk, pi = np.nonzero(~np.eye(n, dtype=bool))  # (outage, survivor) pairs, outage-major

    lb = np.zeros(lay.num_vars)
    ub = np.full(lay.num_vars, np.inf)
    integrality = np.zeros(lay.num_vars, dtype=bool)
    lb[lay.x], ub[lay.x] = xlo, xup
    lb[lay.alpha_k], ub[lay.alpha_k] = alo, ahi
    lb[lay.sigma], ub[lay.sigma] = slo, shi
    lb[lay.z[pk, pi]], ub[lay.z[pk, pi]] = z_lo[pk, pi], z_hi[pk, pi]
    ub[lay.sighat_alpha] = s_bar[:, None, None]
    ub[lay.sighat_x[pk, pi]] = s_bar[pk, None, None]
    ub[lay.t] = float(xup.max() - xlo.min())
    integrality[lay.y_alpha] = integrality[lay.y_x] = True
    # a digit is impossible when its place value alone overshoots
    digit_val = np.arange(10)[:, None] * np.array(place_val)
    ub[lay.y_alpha] = digit_val <= ahi[:, None, None] + 1e-9
    ub[lay.y_x] = digit_val <= xup[:, None, None] + 1e-9

    eq, le = _Rows(), _Rows()  # equality and <= rows
    eq_row, ub_row = eq.add, le.add

    # ``digit`` and ``copy`` below are one owner's (digit a, place b) block of
    # columns, and a flattened block runs in the order of these weights
    digits = [(a, b) for a in range(10) for b in range(lay.np_)]
    weights = [a * place_val[b] for a, b in digits]
    # -a with a an int, so the a = 0 weight is +0.0 rather than -0.0
    neg_weights = [-a * place_val[b] for a, b in digits]

    def digit_value(digit, head=None):
        """head = sum of a * place_val[b] * digit[a, b]; with no head that sum is 1."""
        cols = digit.ravel().tolist()
        if head is None:
            eq_row(cols, weights, 1.0)
        else:
            eq_row([head] + cols, [1.0] + neg_weights, 0.0)

    def one_hot(digit, b):
        eq_row(digit[:, b].tolist(), [1.0] * 10, 1.0)

    def copies(k, copy, b):
        """The ten copies of place b disaggregate the reciprocal sigma_k."""
        eq_row([lay.sigma[k]] + copy[:, b].tolist(), [1.0] + [-1.0] * 10, 0.0)

    def activation(k, copy, digit):
        """A copy is zero unless its digit is selected."""
        for col, dig in zip(copy.ravel().tolist(), digit.ravel().tolist()):
            ub_row([col, dig], [1.0, -s_bar[k]], 0.0)

    def mccormick(w, u, v, u_lo, u_hi, v_lo, v_hi):
        """Envelope of w = u * v, under then over; w None is the constant product 1."""
        corners = ((1.0, u_lo, v_lo), (1.0, u_hi, v_hi), (-1.0, u_hi, v_lo), (-1.0, u_lo, v_hi))
        for s, bu, bv in corners:
            if w is None:
                ub_row([v, u], [s * bu, s * bv], s * bu * bv + s)
            else:
                ub_row([w, v, u], [-s, s * bu, s * bv], s * bu * bv)

    # stiffness budget and per-outage surviving stiffness
    eq_row(lay.x.tolist(), [1.0] * n, alpha)
    for k in range(n):
        eq_row([lay.alpha_k[k], lay.x[k]], [1.0, 1.0], alpha)

    for k in range(n):
        # one-hot decimal expansion of the surviving stiffness, and its
        # reciprocal coupled through the disaggregated copies
        digit, copy = lay.y_alpha[k], lay.sighat_alpha[k]
        digit_value(digit, head=lay.alpha_k[k])
        digit_value(copy)
        for b in range(lay.np_):
            copies(k, copy, b)
            one_hot(digit, b)
        activation(k, copy, digit)

    for i in range(n):
        # one-hot decimal expansion of each gain
        digit_value(lay.y_x[i], head=lay.x[i])
        for b in range(lay.np_):
            one_hot(lay.y_x[i], b)

    pairs = list(zip(pk.tolist(), pi.tolist()))
    for k, i in pairs:
        # each share from the reciprocal's copies over the gain's digits
        copy = lay.sighat_x[k, i]
        for b in range(lay.np_):
            copies(k, copy, b)
        digit_value(copy, head=lay.z[k, i])
        activation(k, copy, lay.y_x[i])

    # recovered linear post-fault limits on the shares
    values = _lp_values(problem)
    limit_k, limit_i, limit_a, limit_b = _limit_rows(n)
    limits = [limit_k.tolist(), limit_i.tolist(),
              values[limit_a].tolist(), values[limit_b].tolist()]
    for k, i, a, b in zip(*limits):
        ub_row([lay.z[k, i]], [a], b)

    # epigraph of the pairwise-gap objective
    for i, c, m, s in zip(*[arr.tolist() for arr in _epigraph_rows(n)]):
        ub_row([lay.x[i], lay.x[c], lay.t[m]], [s, -s, -1.0], 0.0)

    # valid strengthening: shares of any outage sum to one
    for k in range(n):
        eq_row([lay.z[k, i] for i in range(n) if i != k], [1.0] * (n - 1), 1.0)

    # valid strengthening: McCormick envelopes of z = sigma * x and of
    # sigma * surviving stiffness = 1
    for k, i in pairs:
        mccormick(lay.z[k, i], lay.sigma[k], lay.x[i], slo[k], shi[k], xlo[i], xup[i])
    for k in range(n):
        mccormick(None, lay.sigma[k], lay.alpha_k[k], slo[k], shi[k], alo[k], ahi[k])

    # valid strengthening: the exact linear rows of the oracle
    for k, i, a, b in zip(*limits):
        ub_row([lay.x[i], lay.x[k]], [a, b], b * alpha)

    c = np.zeros(lay.num_vars)
    c[lay.t] = 1.0

    return MilpModel(
        layout=lay,
        c=c,
        a_eq=eq.matrix(lay.num_vars),
        b_eq=np.array(eq.rhs),
        a_ub=le.matrix(lay.num_vars),
        b_ub=np.array(le.rhs),
        lb=lb,
        ub=ub,
        integrality=integrality,
    )


# ---------------------------------------------------------------------------
# Solvers over the MILP
# ---------------------------------------------------------------------------


def _grid_ok(problem: DroopProblem) -> bool:
    q = 10.0**problem.psi
    return abs(problem.alpha / q - round(problem.alpha / q)) < 1e-6


def _feasible_on_grid(x: np.ndarray, problem: DroopProblem, xlo, xup) -> bool:
    if np.any(x < xlo - 1e-9) or np.any(x > xup + 1e-9):
        return False
    if abs(x.sum() - problem.alpha) > 1e-6:
        return False
    return exact_residual(x, problem) <= _FEAS_TOL


def _repair_to_grid(x: np.ndarray, problem: DroopProblem, xlo, xup) -> np.ndarray | None:
    """Snap a fractional point to the gain grid and rebalance the sum."""
    q = 10.0**problem.psi
    cand = np.clip(np.round(x / q) * q, xlo, xup)
    quanta = int(round((problem.alpha - cand.sum()) / q))
    for _ in range(abs(quanta)):
        step = q if quanta > 0 else -q
        best, best_obj = -1, np.inf
        for i in range(problem.n):
            trial = cand[i] + step
            if trial < xlo[i] - 1e-12 or trial > xup[i] + 1e-12:
                continue
            cand[i] = trial
            obj = pair_distance(cand)
            cand[i] -= step
            if obj < best_obj - 1e-12:
                best, best_obj = i, obj
        if best < 0:
            return None
        cand[best] += q if quanta > 0 else -q
    if abs(cand.sum() - problem.alpha) > 1e-6:
        return None
    # local polish: single-quantum transfers that keep feasibility
    for _ in range(64):
        obj0 = pair_distance(cand)
        best_pair, best_obj = None, obj0
        for i in range(problem.n):
            for j in range(problem.n):
                if i == j:
                    continue
                if cand[i] + q > xup[i] + 1e-12 or cand[j] - q < xlo[j] - 1e-12:
                    continue
                cand[i] += q
                cand[j] -= q
                obj = pair_distance(cand)
                if obj < best_obj - q * 1e-6 and exact_residual(cand, problem) <= _FEAS_TOL:
                    best_pair, best_obj = (i, j), obj
                cand[i] -= q
                cand[j] += q
        if best_pair is None:
            break
        cand[best_pair[0]] += q
        cand[best_pair[1]] -= q
    if not _feasible_on_grid(cand, problem, xlo, xup):
        return None
    return cand


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    for va, vb in zip(a, b):
        if va < vb - 1e-12:
            return True
        if va > vb + 1e-12:
            return False
    return False


def _solve_bnb(problem: DroopProblem, node_limit: int = 200_000) -> DroopSolution:
    """Built-in branch and bound over the gain grid.

    Nodes relax the problem to the exact LP restricted to a grid-aligned box
    per gain; branching splits the most fractional gain (in grid units) and
    candidates are verified against the exact limits in closed form, which is
    equivalent to an integral digit selection.  Distinct grid objectives
    differ by at least one grid quantum, so a bound within one quantum of the
    incumbent proves optimality.
    """
    q = 10.0**problem.psi
    if not _grid_ok(problem):
        note = f"alpha={problem.alpha:.12g} is not representable on the 10^{problem.psi} grid"
        return DroopSolution("infeasible", None, None, 0.0, backend="bnb", note=note)

    n = problem.n
    xlo0 = np.ceil((problem.x_min - 1e-9) / q) * q
    xup0 = np.floor((problem.x_upper + 1e-9) / q) * q
    if np.any(xlo0 > xup0 + 1e-12):
        return DroopSolution("infeasible", None, None, 0.0, backend="bnb",
                             note=f"some gain's bounds hold no point of the 10^{problem.psi} grid")

    # best_obj is inf until the first candidate, so no test below needs best_x
    best_x: np.ndarray | None = None
    best_obj = np.inf

    def offer(cand: np.ndarray | None):
        nonlocal best_x, best_obj
        if cand is None:
            return
        obj = pair_distance(cand)
        if obj < best_obj - 1e-9 or (abs(obj - best_obj) <= 1e-9 and _lex_smaller(cand, best_x)):
            best_x, best_obj = cand.copy(), obj

    # seed the incumbent from the continuous optimum
    oracle = solve_exact_oracle(problem, tie_break=False)
    if oracle.status == "infeasible":
        return replace(oracle, backend="bnb")
    offer(_repair_to_grid(oracle.assignment.x, problem, xlo0, xup0))

    lp = _exact_lp(problem)  # every node shares it and overwrites only the gain bounds
    col_lo, col_hi = lp[-2:]
    prune_margin = q * (1.0 - 1e-6)
    stack = [(xlo0, xup0, -np.inf)]
    nodes = 0
    while stack:
        lo, hi, inherited = stack.pop()
        if inherited >= best_obj - prune_margin:
            continue
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"branch and bound exceeded {node_limit} nodes")
        col_lo[:n], col_hi[:n] = lo, hi
        res = _highs_lp(*lp, what="B&B node LP")
        if res is None or res[1] >= best_obj - prune_margin:
            continue
        x_rel, bound = res[0][:n], res[1]
        offer(_repair_to_grid(x_rel, problem, xlo0, xup0))
        if bound >= best_obj - prune_margin:
            continue
        frac = np.abs(x_rel / q - np.round(x_rel / q))
        j = int(np.argmax(frac))
        if frac[j] <= 1e-6:
            snapped = np.round(x_rel / q) * q
            if _feasible_on_grid(snapped, problem, lo, hi):
                offer(snapped)
            else:
                offer(_repair_to_grid(snapped, problem, xlo0, xup0))
            continue
        floor_j = math.floor(x_rel[j] / q) * q
        lo_hi = hi.copy()
        lo_hi[j] = floor_j
        hi_lo = lo.copy()
        hi_lo[j] = floor_j + q
        down = (lo, lo_hi, bound)
        up = (hi_lo, hi, bound)
        # explore the side nearer the relaxation first
        if x_rel[j] - floor_j <= 0.5 * q:
            stack.extend([up, down])
        else:
            stack.extend([down, up])

    if best_x is None:
        return DroopSolution("infeasible", None, None, 0.0, backend="bnb", note=(
            f"no point of the 10^{problem.psi} grid keeps every post-fault flow within p_max"))
    return DroopSolution(
        status="optimal",
        assignment=DroopAssignment(best_x),
        objective=best_obj,
        residual=exact_residual(best_x, problem),
        backend="bnb",
        note=f"nodes={nodes}",
    )


def _solve_highs(problem: DroopProblem) -> DroopSolution:
    """Pass the digit-expansion MILP of ``problem`` to the external HiGHS solver.

    HiGHS prints some debug lines with a raw ``printf`` that no ``milp``
    option gates, so file descriptor 1 points at ``os.devnull`` for the
    duration of the call and is restored afterwards.
    """
    model = build_milp(problem)
    sci = _milp_tools()
    constraints = [
        sci.LinearConstraint(model.a_eq, model.b_eq, model.b_eq),
        sci.LinearConstraint(model.a_ub, -np.inf, model.b_ub),
    ]
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    try:
        res = sci.milp(c=model.c, constraints=constraints,
                       integrality=model.integrality.astype(int),
                       bounds=sci.Bounds(model.lb, model.ub), options={"mip_rel_gap": 0.0})
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    if res.status == 2:
        return DroopSolution("infeasible", None, None, 0.0, backend="highs",
                             note="HiGHS finds the digit-expansion MILP infeasible")
    if res.status != 0 or res.x is None:
        raise SolverError(f"HiGHS MILP failed with status {res.status}: {res.message}")
    q = 10.0**problem.psi
    x = np.round(res.x[model.layout.x] / q) * q
    return DroopSolution(
        status="optimal",
        assignment=DroopAssignment(x),
        objective=pair_distance(x),
        residual=exact_residual(x, problem),
        backend="highs",
    )


def solve_problem(problem: DroopProblem, backend: str = "oracle", **options) -> DroopSolution:
    """Solve ``problem`` with one backend: the oracle LP by default, "bnb" or "highs".

    The grid backends' optimum is re-validated against the exact limits: it
    comes back as "precision-limited" when its exact residual exceeds what
    the digit precision should allow, in which case the caller should lower
    psi.
    """
    if backend == "oracle":
        return solve_exact_oracle(problem, **options)
    if backend == "bnb":
        sol = _solve_bnb(problem, **options)
    elif backend == "highs":
        sol = _solve_highs(problem, **options)
    else:
        raise ValueError(f"unknown backend {backend!r} (expected 'oracle', 'bnb' or 'highs')")
    if sol.status != "optimal":
        return sol
    tol = 10.0 * 10.0**problem.psi * float(np.max(np.abs(problem.p_ref), initial=0.0))
    if sol.residual > max(tol, _FEAS_TOL):
        note = f"exact residual {sol.residual:.3e} exceeds precision tolerance {tol:.3e}"
        return replace(sol, status="precision-limited", note=note)
    return sol
