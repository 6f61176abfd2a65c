import hashlib
import itertools
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, event, example, given, settings, strategies as st
from scipy.optimize import linprog

from droopkit import droop_opt
from droopkit.core import DroopAssignment, ScenarioError
from droopkit.droop_opt import (
    _FEAS_TOL,
    DroopProblem,
    DroopSolution,
    SolverError,
    StiffnessError,
    _exact_lp,
    _feasible_on_grid,
    _grid_ok,
    _highs_lp,
    _lex_smaller,
    _repair_to_grid,
    _tightened_bounds,
    build_exact_problem,
    build_milp,
    digit_expansion,
    equal_gains_test,
    exact_residual,
    pair_distance,
    solve_exact_oracle,
    solve_problem,
)

ANALYTIC = dict(
    alpha=300.0,
    x_min=np.full(3, 10.0),
    p_ref=np.array([0.9, 0.5, 0.1]),
    p_max=np.full(3, 0.95),
)
ANALYTIC_X = np.array([300.0 / 19.0, 142.10526315789474, 142.10526315789474])
ANALYTIC_OBJ = 2 * (ANALYTIC_X[1] - ANALYTIC_X[0])


def random_problem(rng, n=None, alpha=600.0, psi=-3):
    n = int(rng.integers(2, 7)) if n is None else n
    p = rng.uniform(-0.3, 0.92, size=n)
    return DroopProblem(alpha=alpha, x_min=np.full(n, 10.0), p_ref=p,
                        p_max=np.full(n, 0.95), psi=psi)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_build_exact_problem_shape(island):
    prob = build_exact_problem(island, 600.0)
    assert prob.n == 6
    assert prob.eta == 3  # magnitude of the stiffness fixes the top place
    c, start, index, value, row_lo, row_hi, col_lo, col_hi = _exact_lp(prob)
    assert np.count_nonzero(row_lo == row_hi) == 1  # the stiffness sum
    # 6*5 ordered pairs, two-sided, plus the epigraph rows
    assert np.count_nonzero(row_lo == -np.inf) == row_lo.size - 1 == 2 * 30 + 2 * 15
    assert c.size == col_lo.size == col_hi.size == start.size - 1 == 6 + 15


def test_two_converters_have_two_postfault_constraints():
    prob = DroopProblem(alpha=100.0, x_min=np.full(2, 10.0),
                        p_ref=np.array([0.2, 0.1]), p_max=np.full(2, 0.95))
    row_lo = _exact_lp(prob)[4]
    assert np.count_nonzero(row_lo == -np.inf) == 2 * 2 + 2 * 1


def test_unreachable_stiffness_raises():
    with pytest.raises(StiffnessError):
        DroopProblem(alpha=50.0, x_min=np.full(6, 10.0),
                     p_ref=np.zeros(6), p_max=np.full(6, 0.95))


@pytest.mark.parametrize("field", ["alpha", "x_min", "p_ref", "p_max"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_non_finite_inputs_rejected_naming_field(field, bad):
    kwargs = dict(ANALYTIC)
    if field == "alpha":
        kwargs["alpha"] = bad
    else:
        kwargs[field] = kwargs[field].copy()
        kwargs[field][1] = bad
    with pytest.raises(ScenarioError, match=f"{field}.*must be finite"):
        DroopProblem(**kwargs)
    # a given eta skips the digit-place derivation, not the check
    with pytest.raises(ScenarioError, match=f"{field}.*must be finite"):
        DroopProblem(**kwargs, eta=3)


@pytest.mark.parametrize("psi", [-400, -324, -320, -306, pytest.param(-10**400, id="-10**400")])
def test_digit_grid_without_finite_quanta_rejected_naming_psi(psi):
    with pytest.raises(ScenarioError, match=f"psi={psi} is too fine a digit grid"):
        DroopProblem(**ANALYTIC, psi=psi)


def test_finest_digit_grid_with_finite_quanta_accepted():
    # 600 / 10.0**-305 is about 6e307, below the largest float
    assert DroopProblem(**{**ANALYTIC, "alpha": 600.0}, psi=-305).psi == -305


def test_digit_expansion():
    assert digit_expansion(142.105, -3, 2) == [5, 0, 1, 2, 4, 1]
    assert digit_expansion(0.0, -3, 2) == [0] * 6
    with pytest.raises(ValueError):
        digit_expansion(0.0005, -3, 2)
    with pytest.raises(ValueError):
        digit_expansion(1500.0, -3, 2)


@given(st.integers(0, 10**6 - 1), st.integers(-5, 0))
def test_digit_expansion_round_trip(units, psi):
    value = units * 10.0**psi
    digits = digit_expansion(value, psi, psi + 5)
    back = sum(d * 10.0 ** (psi + i) for i, d in enumerate(digits))
    assert back == pytest.approx(value, rel=1e-12, abs=10.0**psi * 1e-9)


_SIGNED_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 299)),
)


@st.composite
def _vectors_with_repeats(draw):
    pool = draw(st.lists(_SIGNED_MAGNITUDES, min_size=1, max_size=4))
    values = st.one_of(st.sampled_from(pool), _SIGNED_MAGNITUDES)
    return np.array(draw(st.lists(values, min_size=1, max_size=8)))


@settings(max_examples=300)
@given(_vectors_with_repeats())
def test_pair_distance_matches_triu_indices_bit_for_bit(x):
    # the formula pair_distance used before, kept as the reference: the same
    # upper-triangle entries in the same order give the same float sum
    diffs = np.abs(x[:, None] - x[None, :])
    reference = float(diffs[np.triu_indices(x.size, k=1)].sum())
    assert np.float64(pair_distance(x)).tobytes() == np.float64(reference).tobytes()


# ---------------------------------------------------------------------------
# MILP structure
# ---------------------------------------------------------------------------


def test_milp_binary_counts_reference_case():
    prob = DroopProblem(alpha=300.0, x_min=np.full(3, 10.0),
                        p_ref=np.array([0.4, 0.3, 0.2]), p_max=np.full(3, 0.95),
                        psi=-1, eta=2)
    model = build_milp(prob)
    lay = model.layout
    assert lay.np_ == 4  # places 10^-1 .. 10^2
    assert lay.y_x[0, 0, 0] - lay.y_alpha[0, 0, 0] == 3 * 10 * 4 == 120  # stiffness digits
    assert lay.num_vars - lay.y_x[0, 0, 0] == 120  # gain digits
    assert model.num_binaries <= 240  # some digits are fixed away by bounds


def test_milp_counts_deterministic_in_n_psi_eta():
    sizes = {}
    for trial in range(2):
        rng = np.random.default_rng(trial)
        prob = DroopProblem(alpha=600.0, x_min=np.full(4, 10.0),
                            p_ref=rng.uniform(-0.5, 0.9, 4), p_max=np.full(4, 0.95), psi=-2)
        model = build_milp(prob)
        sizes.setdefault("dims", (model.num_variables, model.num_constraints))
        assert (model.num_variables, model.num_constraints) == sizes["dims"]


def test_one_hot_rule_and_pinned_digits_reproduce_reciprocal():
    """Fixing the digit binaries of a grid point forces sigma = 1/(alpha-x)."""
    prob = DroopProblem(alpha=100.0, x_min=np.full(2, 10.0),
                        p_ref=np.array([0.3, 0.2]), p_max=np.full(2, 0.95), psi=-2, eta=2)
    model = build_milp(prob)
    lay = model.layout
    x_pin = np.array([40.25, 59.75])
    assert exact_residual(x_pin, prob) == 0.0
    lb, ub = model.lb.copy(), model.ub.copy()
    for i in range(2):
        for di, d in enumerate(digit_expansion(x_pin[i], prob.psi, prob.eta)):
            for a in range(10):
                j = lay.y_x[i, a, di]
                lb[j] = ub[j] = 1.0 if a == d else 0.0
    for k in range(2):
        for bi, d in enumerate(digit_expansion(prob.alpha - x_pin[k], prob.psi, prob.eta)):
            for a in range(10):
                j = lay.y_alpha[k, a, bi]
                lb[j] = ub[j] = 1.0 if a == d else 0.0
    res = linprog(
        model.c,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        A_eq=model.a_eq,
        b_eq=model.b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    assert res.status == 0
    for k in range(2):
        sigma = res.x[lay.sigma[k]]
        assert sigma == pytest.approx(1.0 / (prob.alpha - x_pin[k]), abs=10.0**prob.psi)
        # one active digit per place
        for bi in range(lay.np_):
            active = [res.x[lay.y_alpha[k, a, bi]] for a in range(10)]
            assert sum(active) == pytest.approx(1.0, abs=1e-9)
    # the recovered share equals the exact bilinear product
    for k, i in ((0, 1), (1, 0)):
        z = res.x[lay.z[k, i]]
        assert z == pytest.approx(x_pin[i] / (prob.alpha - x_pin[k]), abs=1e-9)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_oracle_analytic_instance():
    sol = solve_exact_oracle(DroopProblem(**ANALYTIC))
    assert sol.status == "optimal"
    assert sol.assignment.x == pytest.approx(ANALYTIC_X, abs=1e-6)
    assert sol.objective == pytest.approx(ANALYTIC_OBJ, abs=1e-6)
    assert sol.residual <= 1e-9
    kf = sol.assignment.k_f
    assert kf == pytest.approx([0.06333, 0.007037, 0.007037], rel=1e-3)


def test_bnb_analytic_instance_on_grid():
    sol = solve_problem(DroopProblem(**ANALYTIC), backend="bnb")
    assert sol.status == "optimal"
    assert sol.assignment.x == pytest.approx(ANALYTIC_X, abs=1e-1)
    assert abs(sol.objective - ANALYTIC_OBJ) <= 9 * 1e-3 * 0.9
    assert sol.residual <= 1e-9
    # gains land exactly on the digit grid
    assert np.allclose(np.round(sol.assignment.x / 1e-3), sol.assignment.x / 1e-3)


def test_highs_matches_bnb_small():
    prob = DroopProblem(alpha=100.0, x_min=np.full(2, 10.0),
                        p_ref=np.array([0.6, 0.2]), p_max=np.full(2, 0.95), psi=-2)
    s_bnb = solve_problem(prob, backend="bnb")
    s_highs = solve_problem(prob, backend="highs")
    assert s_bnb.status == s_highs.status == "optimal"
    assert s_bnb.objective == pytest.approx(s_highs.objective, abs=1e-6)
    assert s_bnb.assignment.x == pytest.approx(s_highs.assignment.x, abs=1e-6)


def test_highs_matches_bnb_analytic():
    prob = DroopProblem(**ANALYTIC)
    s_bnb = solve_problem(prob, backend="bnb")
    s_highs = solve_problem(prob, backend="highs")
    assert s_bnb.objective == pytest.approx(s_highs.objective, abs=1e-9)
    assert s_bnb.assignment.x == pytest.approx(s_highs.assignment.x, abs=1e-9)


def _reference_oracle(problem: DroopProblem, tie_break: bool = True) -> DroopSolution:
    """The oracle as it was before its all-equal check: always two LPs, then a
    snap to alpha/n when the solver lands within noise of it and it is secure."""
    cvec, a_ub, b_ub, a_eq, b_eq, bounds = _reference_exact_lp(problem)
    res = linprog(cvec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return DroopSolution("infeasible", None, None, 0.0, backend="oracle")
    assert res.status == 0
    n = problem.n
    x = res.x[:n]
    if tie_break:
        fstar = float(cvec @ res.x)
        a_ub2 = np.vstack([a_ub, cvec])
        b_ub2 = np.append(b_ub, fstar + 1e-9 * max(1.0, abs(fstar)))
        c2 = np.zeros_like(cvec)
        c2[:n] = 0.5 ** np.arange(n)
        second = linprog(
            c2, A_ub=a_ub2, b_ub=b_ub2, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if second.status == 0 and pair_distance(second.x[:n]) <= pair_distance(x) + 1e-9 * max(
            1.0, abs(fstar)
        ):
            x = second.x[:n]
    x = np.clip(x, problem.x_min, problem.x_upper)
    equal = np.full(n, problem.alpha / n)
    if (
        pair_distance(x) <= 1e-8 * max(1.0, problem.alpha)
        and np.all(equal >= problem.x_min - 1e-12)
        and exact_residual(equal, problem) <= _FEAS_TOL
    ):
        x = equal
    return DroopSolution("optimal", DroopAssignment(x), pair_distance(x),
                         exact_residual(x, problem), backend="oracle")


def _outcome(sol: DroopSolution):
    x = None if sol.assignment is None else sol.assignment.x.tobytes()
    return sol.status, x, sol.objective, sol.residual


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.one_of(st.just(0.0), st.floats(-0.3, 0.92)), min_size=2, max_size=6),
    tie_break=st.booleans(),
    x_min_offset=st.sampled_from([None, 0.0, 5e-13, 1e-9, 1e-3]),
    p_max=st.sampled_from([0.95, 0.6]),
)
def test_oracle_matches_always_lp_reference(p, tie_break, x_min_offset, p_max):
    # x_min_offset puts the first converter's lower bound at or just above alpha/n
    n, alpha = len(p), 600.0
    x_min = np.full(n, 10.0)
    if x_min_offset is not None:
        x_min[0] = alpha / n + x_min_offset
    p_ref = np.array(p)
    prob = DroopProblem(alpha=alpha, x_min=x_min, p_ref=p_ref,
                        p_max=np.maximum(np.abs(p_ref), p_max))
    assert _outcome(solve_exact_oracle(prob, tie_break)) == _outcome(
        _reference_oracle(prob, tie_break)
    )


_X_MIN = {"tiny": lambda n: 0.01, "ten": lambda n: 10.0,
          "near": lambda n: 600.0 / n * (1 - 1e-3), "nearer": lambda n: 600.0 / n * (1 - 1e-9)}


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1.1e-308, 2.2e-308]),
                         st.floats(-0.9, 0.92)), min_size=2, max_size=6),
    slack=st.lists(st.sampled_from([-1e-9, 0.0, 1e-9, 0.3, 2.0]), min_size=6, max_size=6),
    floors=st.lists(st.sampled_from(sorted(_X_MIN)), min_size=6, max_size=6),
)
# dividing by this p_k would overflow a cap of 2.0 / 1.1e-308, a RuntimeWarning here
@example(p=[0.0, 0.0, 0.0, 1.1e-308], slack=[2.0] * 6, floors=["ten"] * 6)
def test_closed_form_screen_never_rejects_what_the_lp_solves(p, slack, floors):
    """Near the boundary: p_max = |p_i| + 0 or +-1e-9, signed zero and subnormal
    set-points, and gain floors a hair under alpha/n."""
    n, alpha = len(p), 600.0
    p_ref = np.array(p)
    x_min = np.array([_X_MIN[kind](n) for kind in floors[:n]])
    assume(x_min.sum() < alpha)
    prob = DroopProblem(alpha=alpha, x_min=x_min, p_ref=p_ref,
                        p_max=np.maximum(np.abs(p_ref) + slack[:n], 1e-9))
    screened = droop_opt._shares_out_of_reach(prob)
    status = _reference_oracle(prob).status
    event(f"screened {screened}, reference {status}")
    assert not screened or status == "infeasible"


def test_oracle_skips_the_lp_exactly_when_equal_gains_are_secure(monkeypatch):
    class LinprogCalled(Exception):
        pass

    def no_linprog(*args, **kwargs):
        raise LinprogCalled

    monkeypatch.setattr(droop_opt, "_highs_lp", no_linprog)
    secure = DroopProblem(alpha=300.0, x_min=np.full(3, 10.0),
                          p_ref=np.array([0.1, 0.2, -0.1]), p_max=np.full(3, 0.95))
    for tie_break in (True, False):
        sol = solve_exact_oracle(secure, tie_break)
        assert sol.status == "optimal" and sol.objective == 0.0
        assert np.all(sol.assignment.x == 100.0)
        assert sol.residual == exact_residual(sol.assignment.x, secure) == 0.0
    # ANALYTIC's equal gains overload the 0.9 pu converter when the 0.5 pu one trips
    with pytest.raises(LinprogCalled):
        solve_exact_oracle(DroopProblem(**ANALYTIC))


@pytest.mark.parametrize("alpha", [100.0, 600.0])
def test_stacked_equal_gains_test_matches_one_row_at_a_time(alpha):
    p_ref = np.random.default_rng(5).uniform(-0.3, 0.95, size=(3, 40, 6))
    p_ref[0, 0, 2] = np.nan  # a NaN excess does not pass
    x_min, p_max = np.full(6, 10.0), np.full(6, 0.95)
    x, ok, residual = equal_gains_test(alpha, x_min, p_ref, p_max)
    assert x.tobytes() == np.full(6, alpha / 6).tobytes()
    assert ok.shape == residual.shape == (3, 40) and 0 < ok.sum() < ok.size - 1
    assert not ok[0, 0] and math.isnan(residual[0, 0])
    for row in np.ndindex(3, 40):
        _, ok_row, residual_row = equal_gains_test(alpha, x_min, p_ref[row], p_max)
        assert (ok_row, residual_row.tobytes()) == (ok[row], residual[row].tobytes())
        if row != (0, 0):
            problem = DroopProblem(alpha=alpha, x_min=x_min, p_ref=p_ref[row], p_max=p_max)
            assert residual_row == exact_residual(x, problem)
    # alpha/n below a bound passes nowhere
    assert not equal_gains_test(alpha, np.full(6, alpha / 6 + 1e-9), p_ref, p_max)[1].any()


# ---------------------------------------------------------------------------
# the direct HiGHS helper against linprog
# ---------------------------------------------------------------------------


def _linprog_outcome(c, a_ub, b_ub, a_eq, b_eq, bounds):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", res.x.tobytes(), res.fun
    return ("infeasible" if res.status == 2 else "failed"), None, None


def _helper_outcome(*lp):
    try:
        res = droop_opt._highs_lp(*lp, what="test LP")
    except droop_opt.SolverError:
        return "failed", None, None
    if res is None:
        return "infeasible", None, None
    return "optimal", res[0].tobytes(), res[1]


@settings(max_examples=80, deadline=None)
@given(
    p=st.lists(st.one_of(st.just(0.0), st.floats(-0.3, 0.92)), min_size=2, max_size=6),
    tight=st.lists(st.booleans(), min_size=6, max_size=6),
    pinned=st.booleans(),
    box=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=6, max_size=6),
    psi=st.integers(-3, -1),
)
def test_highs_lp_matches_linprog(p, tight, pinned, box, psi):
    """The helper gives linprog's status, x bytes and objective on every oracle and B&B LP.

    ``_highs_lp`` drives scipy's private HiGHS binding, so a scipy upgrade that
    changes that binding or the model linprog builds fails here.
    """
    n, alpha = len(p), 600.0
    p_ref = np.array(p)
    # p_max = |p_ref| leaves no headroom; gains pinned near alpha/n are often infeasible
    p_max = np.where(np.array(tight[:n]) & (p_ref != 0.0), np.abs(p_ref), 0.95)
    x_min = np.full(n, 0.999 * alpha / n if pinned else 10.0)
    prob = DroopProblem(alpha=alpha, x_min=x_min, p_ref=p_ref, p_max=p_max, psi=psi)
    lp = _exact_lp(prob)
    cvec, a_ub, b_ub, a_eq, b_eq, bounds = _reference_exact_lp(prob)
    main = _linprog_outcome(cvec, a_ub, b_ub, a_eq, b_eq, bounds)
    assert _helper_outcome(*lp) == main

    if main[0] == "optimal":  # the oracle's tie-break LP: the face row after a_ub
        face = main[2] + 1e-9 * max(1.0, main[2])
        c2 = np.zeros_like(cvec)
        c2[:n] = 0.5 ** np.arange(n)
        assert (_helper_outcome(c2, *_exact_lp(prob, face=face)[1:])
                == _linprog_outcome(c2, np.vstack([a_ub, cvec]), np.append(b_ub, face),
                                    a_eq, b_eq, bounds))

    # a B&B node: each gain in a grid-aligned box, empty when its ends cross
    q = 10.0**psi
    lo_u = np.ceil((prob.x_min - 1e-9) / q)
    span = np.floor((prob.x_upper + 1e-9) / q) - lo_u + 1
    u = np.array(box[:n])
    lo, hi = (lo_u + np.floor(u[:, 0] * span)) * q, (lo_u + np.floor(u[:, 1] * span)) * q
    node = [(float(lo[i]), float(hi[i])) for i in range(n)] + bounds[n:]
    lp[6][:n], lp[7][:n] = lo, hi  # as a B&B node overwrites the gain bounds
    assert _helper_outcome(*lp) == _linprog_outcome(cvec, a_ub, b_ub, a_eq, b_eq, node)


def test_lp_bounds_write_highs_infinity_as_inf():
    """``_exact_lp`` writes a missing bound as ``±math.inf`` without loading scipy,
    which holds only while HiGHS's ``kHighsInf`` is IEEE infinity."""
    assert droop_opt._highs.kHighsInf == math.inf


def test_lp_solves_never_call_linprog(monkeypatch):
    """``droop_opt.linprog`` is only a hook for the benchmark tracer: no solve goes through it."""
    def no_linprog(*args, **kwargs):
        raise AssertionError("droop_opt.linprog called")

    monkeypatch.setattr(droop_opt, "linprog", no_linprog)
    prob = DroopProblem(**ANALYTIC)  # its equal gains are insecure, so both solve LPs
    assert solve_exact_oracle(prob).status == "optimal"
    assert solve_problem(prob, backend="bnb").status == "optimal"


def test_oracle_and_bnb_solves_leave_stdout_and_stderr_empty(capfd):
    prob = DroopProblem(**ANALYTIC)  # its equal gains are insecure, so both solve LPs
    assert solve_exact_oracle(prob).status == "optimal"
    assert solve_problem(prob, backend="bnb").status == "optimal"
    assert capfd.readouterr() == ("", "")


def _highs_options(**fields):
    """The helper's HiGHS options with ``fields`` changed."""
    highs = droop_opt._highs._Highs()
    highs.passOptions(droop_opt._HIGHS_OPTIONS)
    options = highs.getOptions()
    for name, value in fields.items():
        setattr(options, name, value)
    return options


_ITERATION_LIMITED = _highs_options(simplex_iteration_limit=0)


def _fresh_solver(options):
    """A new HiGHS instance for every LP."""
    highs = droop_opt._highs._Highs()
    highs.passOptions(options)
    return highs


def _sequence_lp(kind: str, seed: int):
    """One LP of ``kind`` the oracle or B&B passes ``_highs_lp``, with its options."""
    rng = np.random.default_rng(seed)
    if kind == "infeasible":  # every converter fully loaded: no post-fault headroom
        prob = DroopProblem(alpha=600.0, x_min=np.full(4, 10.0), p_ref=np.full(4, 0.95),
                            p_max=np.full(4, 0.95))
        return _exact_lp(prob), droop_opt._HIGHS_OPTIONS
    if kind == "stopped":  # ANALYTIC's LP needs simplex iterations
        return _exact_lp(DroopProblem(**ANALYTIC)), _ITERATION_LIMITED
    prob = random_problem(rng)
    if kind == "tie-break":
        c2 = np.zeros(prob.n + prob.n * (prob.n - 1) // 2)
        c2[:prob.n] = 0.5 ** np.arange(prob.n)
        return (c2, *_exact_lp(prob, face=rng.uniform(0.0, 400.0))[1:]), droop_opt._HIGHS_OPTIONS
    lp = _exact_lp(prob)
    if kind == "node":  # a grid-aligned box per gain, empty when its ends cross
        q = 10.0**prob.psi
        lo_u = np.ceil((prob.x_min - 1e-9) / q)
        span = np.floor((prob.x_upper + 1e-9) / q) - lo_u
        ends = np.sort(rng.random((prob.n, 2)), axis=1)[:, ::rng.choice([1, -1])]
        lp[6][:prob.n], lp[7][:prob.n] = (lo_u + np.floor(ends.T * span)) * q
    return lp, droop_opt._HIGHS_OPTIONS


def _solver_outcome(solver, lp, options):
    with mock.patch.multiple(droop_opt, _solver=solver, _HIGHS_OPTIONS=options):
        try:
            res = droop_opt._highs_lp(*lp, what="test LP")
        except SolverError as exc:
            return str(exc)
    return None if res is None else (res[0].tobytes(), res[1])


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from(["oracle", "tie-break", "node"]),
                             st.integers(0, 10_000)), max_size=8),
    infeasible_at=st.integers(0, 8),
    stopped_at=st.integers(0, 9),
)
def test_cached_solver_keeps_no_state_between_lps(steps, infeasible_at, stopped_at):
    """Each LP of a sequence through the one cached instance gives the status,
    x bytes and objective of a new instance built for it alone."""
    steps.insert(infeasible_at, ("infeasible", 0))
    steps.insert(stopped_at, ("stopped", 0))
    for kind, seed in steps:
        lp, options = _sequence_lp(kind, seed)
        got = _solver_outcome(droop_opt._solver, lp, options)
        event(f"{kind}: {'infeasible' if got is None else type(got).__name__}")
        assert got == _solver_outcome(_fresh_solver, lp, options)


@pytest.mark.parametrize("backend, what", [("oracle", "oracle LP"), ("bnb", "B&B node LP")])
def test_lp_stopped_short_raises_solver_error_naming_status(monkeypatch, backend, what):
    prob = DroopProblem(**ANALYTIC)
    if backend == "bnb":  # seed the incumbent before the limit, so a node LP is stopped
        seed = solve_exact_oracle(prob, tie_break=False)
        monkeypatch.setattr(droop_opt, "solve_exact_oracle", lambda *args, **kwargs: seed)
    monkeypatch.setattr(droop_opt, "_HIGHS_OPTIONS", _highs_options(simplex_iteration_limit=0))
    with pytest.raises(droop_opt.SolverError,
                       match=f"{what} failed with HiGHS model status kIterationLimit"):
        solve_problem(prob, backend=backend)


def test_bnb_node_limit_raises_solver_error():
    with pytest.raises(droop_opt.SolverError, match="branch and bound exceeded 1 nodes"):
        solve_problem(DroopProblem(**ANALYTIC), backend="bnb", node_limit=1)


# A frozen copy of ``_solve_bnb`` as it stood before its dead code went: the
# global-bound scan after branching, the ``best_x is not None`` guards and the
# ``solve_node`` closure.  It calls the module's helpers, so the properties
# below compare only the search loop.  A rewrite of the search (warm-started
# nodes, another node order) must keep them passing or say which bytes move.
def _reference_bnb(problem: DroopProblem, node_limit: int = 200_000) -> DroopSolution:
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

    lp = _exact_lp(problem)  # every node shares it and overwrites only the gain bounds
    col_lo, col_hi = lp[-2:]

    def solve_node(lo, hi):
        col_lo[:n], col_hi[:n] = lo, hi
        res = _highs_lp(*lp, what="B&B node LP")
        if res is None:
            return None, np.inf
        return res[0][:n], res[1]

    best_x: np.ndarray | None = None
    best_obj = np.inf

    def offer(cand: np.ndarray | None):
        nonlocal best_x, best_obj
        if cand is None:
            return
        obj = pair_distance(cand)
        if obj < best_obj - 1e-9 or (
            abs(obj - best_obj) <= 1e-9 and best_x is not None and _lex_smaller(cand, best_x)
        ):
            best_x, best_obj = cand.copy(), obj

    # seed the incumbent from the continuous optimum
    oracle = solve_exact_oracle(problem, tie_break=False)
    if oracle.status == "infeasible":
        return replace(oracle, backend="bnb")
    offer(_repair_to_grid(oracle.assignment.x, problem, xlo0, xup0))

    prune_margin = q * (1.0 - 1e-6)
    stack = [(xlo0, xup0, -np.inf)]
    nodes = 0
    while stack:
        lo, hi, inherited = stack.pop()
        if best_x is not None and inherited >= best_obj - prune_margin:
            continue
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"branch and bound exceeded {node_limit} nodes")
        x_rel, bound = solve_node(lo, hi)
        if x_rel is None:
            continue
        if best_x is not None and bound >= best_obj - prune_margin:
            continue
        offer(_repair_to_grid(x_rel, problem, xlo0, xup0))
        if best_x is not None and bound >= best_obj - prune_margin:
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
        if best_x is not None and stack:
            glb = min(b for _, _, b in stack)
            if glb >= best_obj - prune_margin:
                break

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


def _bnb_outcome(solve, prob: DroopProblem, node_limit: int):
    try:
        sol = solve(prob, node_limit=node_limit)
    except SolverError as exc:
        return "SolverError", str(exc)
    x = None if sol.assignment is None else sol.assignment.x.tobytes()
    return sol.status, sol.note, sol.objective, sol.residual, x


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    psi=st.sampled_from([-1, -2, -3, -4, -6, -8]),
    alpha=st.sampled_from([100.0, 300.0, 450.0, 600.0]),
    node_limit=st.one_of(st.integers(1, 8), st.just(200)),
)
def test_bnb_matches_frozen_reference_bytes(seed, n, psi, alpha, node_limit):
    """B&B gives the frozen reference's status, note, objective, residual and gain bytes,
    or raises the same ``SolverError`` message."""
    # C2-style set-points, a few of them zero; p_max = |p_ref| leaves a converter no
    # headroom, and gains pinned near alpha/n are often infeasible
    rng = np.random.default_rng(seed)
    p_ref = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(-0.3, 0.92, n))
    p_max = np.where((rng.random(n) < 0.1) & (p_ref != 0.0), np.abs(p_ref), 0.95)
    x_min = np.full(n, 0.999 * alpha / n if rng.random() < 0.1 else 10.0)
    prob = DroopProblem(alpha=alpha, x_min=x_min, p_ref=p_ref, p_max=p_max, psi=psi)
    got = _bnb_outcome(droop_opt._solve_bnb, prob, node_limit)
    event(got[0] if got[0] != "optimal" else
          "optimal at the root" if got[1] == "nodes=1" else "optimal below the root")
    assert got == _bnb_outcome(_reference_bnb, prob, node_limit)


@pytest.mark.parametrize("kwargs, node_limit, status, note", [
    (ANALYTIC, 200_000, "optimal", "nodes=5"),
    (ANALYTIC, 1, "SolverError", "branch and bound exceeded 1 nodes"),
    ({**ANALYTIC, "p_max": np.array([0.9, 0.5, 0.1])}, 200_000, "infeasible",
     "no gains summing to alpha=300 keep every post-fault flow within p_max"),
    ({**ANALYTIC, "alpha": 300.0005}, 200_000, "infeasible",
     "alpha=300.0005 is not representable on the 10^-3 grid"),
])
def test_bnb_matches_frozen_reference_on_each_exit(kwargs, node_limit, status, note):
    """A search below the root, a node-limit hit and two infeasible exits, by name."""
    prob = DroopProblem(**kwargs)
    got = _bnb_outcome(droop_opt._solve_bnb, prob, node_limit)
    assert got[:2] == (status, note)
    assert got == _bnb_outcome(_reference_bnb, prob, node_limit)


def test_zero_loading_equal_split_both_paths():
    prob = DroopProblem(alpha=600.0, x_min=np.full(6, 10.0),
                        p_ref=np.zeros(6), p_max=np.full(6, 0.95))
    for backend in ("oracle", "bnb"):
        sol = solve_problem(prob, backend=backend)
        assert sol.status == "optimal"
        assert np.all(sol.assignment.x == 100.0), backend
        assert sol.objective == 0.0


def test_fully_loaded_infeasible_both_paths():
    prob = DroopProblem(alpha=600.0, x_min=np.full(4, 10.0),
                        p_ref=np.full(4, 0.95), p_max=np.full(4, 0.95))
    assert solve_exact_oracle(prob).status == "infeasible"
    assert solve_problem(prob, backend="bnb").status == "infeasible"


def test_pmax_sensitivity_flips_feasibility():
    # with two converters the survivor takes the whole set-point, so the
    # critical limit sits exactly at the outaged set-point
    mk = lambda m: DroopProblem(alpha=100.0, x_min=np.full(2, 10.0),
                                p_ref=np.array([0.9, 0.0]), p_max=np.array([0.95, m]))
    assert solve_exact_oracle(mk(0.9 + 1e-6)).status == "optimal"
    assert solve_exact_oracle(mk(0.9 - 1e-3)).status == "infeasible"
    assert solve_problem(mk(0.9 - 1e-3), backend="bnb").status == "infeasible"


def test_alpha_off_grid_rejected_by_bnb():
    prob = DroopProblem(alpha=600.0005, x_min=np.full(3, 10.0),
                        p_ref=np.array([0.2, 0.1, 0.0]), p_max=np.full(3, 0.95), psi=-3)
    sol = solve_problem(prob, backend="bnb")
    assert sol.status == "infeasible"
    assert "grid" in sol.note


def test_precision_limited_status_mapping(monkeypatch):
    import droopkit.droop_opt as mod

    prob = DroopProblem(**ANALYTIC)
    fake = DroopSolution("optimal", DroopAssignment(np.array([15.0, 142.0, 143.0])),
                         300.0, residual=0.5, backend="bnb")
    monkeypatch.setattr(mod, "_solve_bnb", lambda problem, **kw: fake)
    sol = solve_problem(prob, backend="bnb")
    assert sol.status == "precision-limited"
    assert "residual" in sol.note


# ---------------------------------------------------------------------------
# randomized equivalence and properties
# ---------------------------------------------------------------------------


def _reference_exact_residual(x, problem):
    """Worst post-fault excess as a (k, i) double loop over outage and survivor."""
    worst = 0.0
    for k in range(problem.n):
        share = x / (problem.alpha - x[k])
        for i in range(problem.n):
            if i != k:
                flow = problem.p_ref[i] + share[i] * problem.p_ref[k]
                worst = max(worst, abs(flow) - problem.p_max[i])
    return max(0.0, worst)


@given(st.integers(0, 10_000), st.floats(50.0, 1000.0))
@settings(max_examples=200, deadline=None)
def test_exact_residual_matches_double_loop(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    prob = DroopProblem(alpha=alpha, x_min=np.full(n, 1.0), p_ref=rng.uniform(-1.0, 1.0, n),
                        p_max=rng.uniform(0.05, 1.0, n))
    candidates = (rng.uniform(1.0, alpha / n, n), np.full(n, alpha / n),
                  rng.dirichlet(np.ones(n)) * alpha)
    for x in candidates:
        assert exact_residual(x, prob) == pytest.approx(
            _reference_exact_residual(x, prob), rel=0, abs=1e-12
        )


def _reference_z_bounds(problem):
    """Share bounds of _tightened_bounds, element by element over (k, i)."""
    n, p, pmax, alpha = problem.n, problem.p_ref, problem.p_max, problem.alpha
    xlo, xup = problem.x_min.copy(), problem.x_upper.copy()
    slo, shi = 1.0 / (alpha - xlo), 1.0 / (alpha - xup)
    z_lo, z_hi = np.zeros((n, n)), np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            lo, hi = slo[k] * xlo[i], shi[k] * xup[i]
            if p[k] > 0:
                hi = min(hi, (pmax[i] - p[i]) / p[k])
                lo = max(lo, (-pmax[i] - p[i]) / p[k])
            elif p[k] < 0:
                hi = min(hi, (-pmax[i] - p[i]) / p[k])
                lo = max(lo, (pmax[i] - p[i]) / p[k])
            z_lo[k, i], z_hi[k, i] = lo, hi
    for i in range(n):
        cap = min((z_hi[k, i] / slo[k] for k in range(n) if k != i), default=xup[i])
        xup[i] = max(xlo[i], min(xup[i], cap))
    shi = 1.0 / (alpha - xup)
    for k in range(n):
        for i in range(n):
            if i != k:
                z_hi[k, i] = min(z_hi[k, i], shi[k] * xup[i])
                z_lo[k, i] = max(z_lo[k, i], slo[k] * xlo[i])
    return xup, z_lo, z_hi


def _reference_milp_bounds(model, problem):
    """Variable bounds and integrality of build_milp, set one variable at a time."""
    lay, n, s_bar = model.layout, problem.n, problem.s_bar
    xlo, xup, alo, ahi, slo, shi, z_lo, z_hi = _tightened_bounds(problem)
    place_val = [10.0**b for b in lay.places]
    lb, ub = np.zeros(lay.num_vars), np.full(lay.num_vars, np.inf)
    integrality = np.zeros(lay.num_vars, dtype=bool)
    for i in range(n):
        lb[lay.x[i]], ub[lay.x[i]] = xlo[i], xup[i]
    for k in range(n):
        lb[lay.alpha_k[k]], ub[lay.alpha_k[k]] = alo[k], ahi[k]
        lb[lay.sigma[k]], ub[lay.sigma[k]] = slo[k], shi[k]
        for a in range(10):
            for bi in range(lay.np_):
                ub[lay.sighat_alpha[k, a, bi]] = s_bar[k]
                ub[lay.y_alpha[k, a, bi]] = 0.0 if a * place_val[bi] > ahi[k] + 1e-9 else 1.0
                ub[lay.y_x[k, a, bi]] = 0.0 if a * place_val[bi] > xup[k] + 1e-9 else 1.0
                integrality[[lay.y_alpha[k, a, bi], lay.y_x[k, a, bi]]] = True
    for k, i in itertools.permutations(range(n), 2):
        lb[lay.z[k, i]], ub[lay.z[k, i]] = z_lo[k, i], z_hi[k, i]
        for a in range(10):
            for di in range(lay.np_):
                ub[lay.sighat_x[k, i, a, di]] = s_bar[k]
    for m in range(lay.t.size):
        ub[lay.t[m]] = float(xup.max() - xlo.min())
    return lb, ub, integrality


@given(st.integers(0, 10_000), st.sampled_from([-3, -2, -1]))
@settings(max_examples=40, deadline=None)
def test_bounds_match_elementwise_reference_bit_for_bit(seed, psi):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    p = rng.uniform(-0.95, 0.95, n)
    p[rng.random(n) < 0.25] = 0.0  # a zero set-point leaves its shares unbounded by limits
    prob = DroopProblem(alpha=float(rng.choice([100.0, 600.0])), x_min=rng.uniform(1.0, 15.0, n),
                        p_ref=p, p_max=rng.uniform(0.5, 1.0, n), psi=psi)
    _, xup, _, _, _, _, z_lo, z_hi = _tightened_bounds(prob)
    for got, want in zip((xup, z_lo, z_hi), _reference_z_bounds(prob)):
        assert got.tobytes() == want.tobytes()
    model = build_milp(prob)
    for got, want in zip((model.lb, model.ub, model.integrality),
                         _reference_milp_bounds(model, prob)):
        assert got.tobytes() == want.tobytes()



def _reference_exact_lp(problem):
    """_exact_lp row by row: two limit rows per (outage k, survivor i), then the epigraph."""
    n = problem.n
    pairs = [(i, c) for i in range(n) for c in range(i + 1, n)]
    nv = n + len(pairs)
    cvec = np.zeros(nv)
    cvec[n:] = 1.0
    rows, rhs = [], []
    p, pmax, alpha = problem.p_ref, problem.p_max, problem.alpha
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            up = np.zeros(nv)
            up[i] += p[k]
            up[k] += pmax[i] - p[i]
            rows.append(up)
            rhs.append((pmax[i] - p[i]) * alpha)
            lo = np.zeros(nv)
            lo[i] -= p[k]
            lo[k] += pmax[i] + p[i]
            rows.append(lo)
            rhs.append((pmax[i] + p[i]) * alpha)
    for m, (i, c) in enumerate(pairs):
        for sign in (1.0, -1.0):
            row = np.zeros(nv)
            row[i] = sign
            row[c] = -sign
            row[n + m] = -1.0
            rows.append(row)
            rhs.append(0.0)
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = 1.0
    bounds = [(float(problem.x_min[i]), float(problem.x_upper[i])) for i in range(n)]
    bounds += [(0.0, None)] * len(pairs)
    return cvec, np.array(rows), np.array(rhs), a_eq, np.array([alpha]), bounds


@given(st.integers(2, 8), st.integers(0, 10_000), st.sampled_from([100.0, 450.0, 600.0]),
       st.sampled_from([None, 0.0, 37.25]))
@settings(max_examples=150, deadline=None)
def test_exact_lp_matches_row_by_row_reference_bytes(n, seed, alpha, face):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.9, 0.92, n)
    p[rng.random(n) < 0.25] = 0.0  # the lower row of a zero set-point holds -0.0 + 0.0
    p_max = np.full(n, 0.95)
    tight = rng.random(n) < 0.3
    p_max[tight] = np.maximum(np.abs(p[tight]), 0.05)  # p_max = |p_ref|: no headroom
    prob = DroopProblem(alpha=alpha, x_min=rng.choice([5.0, 10.0, 12.5], n), p_ref=p,
                        p_max=p_max)
    cvec, a_ub, b_ub, a_eq, b_eq, bounds = _reference_exact_lp(prob)
    if face is not None:  # the tie-break row sits between the <= rows and the equality
        a_ub, b_ub = np.vstack([a_ub, cvec]), np.append(b_ub, face)
    a = sp.csc_array(np.vstack([a_ub, a_eq]))  # what linprog hands HiGHS: no stored zeros
    want = (cvec, a.indptr, a.indices, a.data,
            np.concatenate([np.full(b_ub.size, -np.inf), b_eq]), np.concatenate([b_ub, b_eq]),
            np.array([lo for lo, _ in bounds]),
            np.array([np.inf if hi is None else hi for _, hi in bounds]))
    for g, w in zip(_exact_lp(prob, face=face), want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _fixed_milp_problem(alpha, p, p_max=None, x_min=None, psi=-3, eta=None):
    n = len(p)
    return DroopProblem(alpha=alpha, x_min=np.full(n, 10.0) if x_min is None else np.array(x_min),
                        p_ref=np.array(p, dtype=float),
                        p_max=np.full(n, 0.95) if p_max is None else np.array(p_max),
                        psi=psi, eta=eta)


# sha256 over every array build_milp returns (the CSR parts of both matrices
# included), recorded when the MILP was first assembled row by row
MILP_DIGESTS = [
    ("6509dd134639ca30d42dfa52125b9bcb4068a29060d91ee8a250befd4a27c3fb",
     dict(alpha=300.0, p=[0.9, 0.5, 0.1])),
    ("caeec677c769aa09c2b258aef4db3bfa4caef05526fbe125cad7394ad791807a",
     dict(alpha=100.0, p=[0.2, 0.1], psi=-2)),
    ("781410478e51e5d548c2d113b8f0ec000dc8c3d8cff4c48d3a65d64d6431819c",
     dict(alpha=600.0, p=[0.5, 0.0, -0.25, 0.3], psi=-1)),
    ("86ed9e371d1de116bc9679066047792ab1734642c30e02fa32ebb80db55f7039",
     dict(alpha=600.0, p=[0.95, 0.4, -0.2, 0.0, 0.6], p_max=[0.95, 0.95, 0.95, 0.9, 0.95],
          psi=-2)),
    ("da0a6a0cbbdebe9e0dd0e213ffd868cb94089da414b13f37cbc85ce5e2d46bf8", "island"),
    ("17631009afa04b552569ff7752487f217a083b820c8b0b5bd005f65694ff2de2",
     dict(alpha=150.0, p=[0.0, 0.0, 0.0], x_min=[10.0, 20.0, 30.0], psi=-1)),
    ("5e4eba78af3a72df9af0bced1f3fc894ba27e01bad7a9a1e9352b386c21a304b",
     dict(alpha=450.0, p=[0.8, -0.3, 0.0, 0.55, -0.1, 0.2],
          p_max=[0.9, 0.3, 0.95, 0.55, 0.95, 0.95],
          x_min=[10.0, 15.0, 10.0, 25.0, 10.0, 12.5], psi=-2)),
    ("e48f5ca52eda14924934cb6ab149dee4d2fd2c79d0d40916adb074ca2562d660",
     dict(alpha=1000.0, p=[-0.9, -0.3, 0.5, 0.7], p_max=[0.9, 0.95, 0.8, 0.95], eta=4)),
]


@pytest.mark.parametrize("digest, spec", MILP_DIGESTS)
def test_build_milp_arrays_match_recorded_digests(island, digest, spec):
    prob = build_exact_problem(island, 600.0) if spec == "island" else _fixed_milp_problem(**spec)
    model = build_milp(prob)
    parts = {"c": model.c, "b_eq": model.b_eq, "b_ub": model.b_ub, "lb": model.lb,
             "ub": model.ub, "integrality": model.integrality}
    for name in ("a_eq", "a_ub"):
        mat = getattr(model, name)
        parts.update({f"{name}.data": mat.data, f"{name}.indices": mat.indices,
                      f"{name}.indptr": mat.indptr})
    h = hashlib.sha256()
    for key in sorted(parts):
        h.update(key.encode())
        h.update(np.ascontiguousarray(parts[key]).tobytes())
    assert h.hexdigest() == digest

def test_random_equivalence_oracle_vs_bnb():
    rng = np.random.default_rng(7)
    feasible = 0
    while feasible < 30:
        prob = random_problem(rng)
        oracle = solve_exact_oracle(prob)
        if oracle.status != "optimal":
            continue
        feasible += 1
        milp = solve_problem(prob, backend="bnb")
        assert milp.status == "optimal"
        tol = prob.n**2 * 1e-3 * max(float(np.max(np.abs(prob.p_ref))), 1e-9)
        assert milp.objective >= oracle.objective - 1e-6
        assert milp.objective - oracle.objective <= tol
        assert milp.residual <= 1e-2 * float(np.max(np.abs(prob.p_ref)))


def test_fine_precision_grid_through_builtin_backend():
    prob = DroopProblem(**{**ANALYTIC, "psi": -5})
    sol = solve_problem(prob, backend="bnb")
    oracle = solve_exact_oracle(prob)
    assert sol.status == "optimal"
    assert sol.objective - oracle.objective <= 9 * 1e-5 * 0.9
    assert np.allclose(np.round(sol.assignment.x / 1e-5), sol.assignment.x / 1e-5)
    assert sol.residual <= 1e-9


def test_highs_matches_bnb_on_random_tiny_instances():
    rng = np.random.default_rng(55)
    done = 0
    while done < 3:
        p = rng.uniform(-0.4, 0.9, size=2)
        prob = DroopProblem(alpha=100.0, x_min=np.full(2, 10.0), p_ref=p,
                            p_max=np.full(2, 0.95), psi=-2)
        s_bnb = solve_problem(prob, backend="bnb")
        s_highs = solve_problem(prob, backend="highs")
        assert s_bnb.status == s_highs.status
        if s_bnb.status != "optimal":
            continue
        done += 1
        assert s_bnb.objective == pytest.approx(s_highs.objective, abs=1e-6)


def test_random_equivalence_extends_to_eight_converters():
    rng = np.random.default_rng(31)
    feasible = 0
    while feasible < 6:
        n = int(rng.integers(7, 9))
        prob = random_problem(rng, n=n)
        oracle = solve_exact_oracle(prob)
        if oracle.status != "optimal":
            continue
        feasible += 1
        milp = solve_problem(prob, backend="bnb")
        assert milp.status == "optimal"
        assert oracle.objective <= milp.objective + n**2 * 1e-3
        assert milp.residual <= 1e-9


def test_milp_infeasible_implies_oracle_infeasible():
    rng = np.random.default_rng(11)
    seen_infeasible = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        p = rng.uniform(0.5, 0.95, size=n)  # heavy loadings to hit infeasibility
        prob = DroopProblem(alpha=600.0, x_min=np.full(n, 10.0), p_ref=p,
                            p_max=np.full(n, 0.95))
        milp = solve_problem(prob, backend="bnb")
        if milp.status == "infeasible":
            seen_infeasible += 1
            assert solve_exact_oracle(prob).status == "infeasible"
    assert seen_infeasible > 0


def test_symmetry_under_permutation():
    rng = np.random.default_rng(3)
    p = rng.uniform(-0.2, 0.9, size=5)
    prob = DroopProblem(alpha=600.0, x_min=np.full(5, 10.0), p_ref=p, p_max=np.full(5, 0.95))
    sol = solve_exact_oracle(prob)
    perm = rng.permutation(5)
    prob_p = DroopProblem(alpha=600.0, x_min=np.full(5, 10.0), p_ref=p[perm],
                          p_max=np.full(5, 0.95))
    sol_p = solve_exact_oracle(prob_p)
    assert sol_p.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
    assert sol_p.assignment.x == pytest.approx(sol.assignment.x[perm], rel=1e-6, abs=1e-6)


def test_least_headroom_never_gets_strictly_largest_gain():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 15:
        prob = random_problem(rng, n=int(rng.integers(3, 7)))
        sol = solve_exact_oracle(prob)
        if sol.status != "optimal":
            continue
        x = sol.assignment.x
        # only meaningful when some post-fault limit is active at the optimum
        worst = max(
            abs(prob.p_ref[i] + x[i] / (prob.alpha - x[k]) * prob.p_ref[k]) - prob.p_max[i]
            for k in range(prob.n)
            for i in range(prob.n)
            if i != k
        )
        if worst < -1e-6:
            continue
        checked += 1
        tight = np.argmin(prob.p_max - np.abs(prob.p_ref))
        assert not np.all(x[tight] > x[np.arange(prob.n) != tight] + 1e-9)


def test_oracle_runtime_budget():
    rng = np.random.default_rng(23)
    probs = [random_problem(rng, n=6) for _ in range(5)]
    for prob in probs:
        best = min(
            _timed(lambda: solve_exact_oracle(prob)) for _ in range(3)
        )
        assert best < 0.010, f"oracle took {best * 1e3:.2f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
