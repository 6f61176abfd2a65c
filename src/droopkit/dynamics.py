"""State-space dynamics of the droop-controlled island and its H2 metrics.

The model is the standard second-order one per converter: the angle
integrates the frequency state, and the frequency state is a first-order
power-measurement filter with time constant tau closing the droop loop over
the linearized network flows.  Wind farms carry no dynamic state; their
nodes are eliminated from the network Laplacian and their injections mapped
to equivalent injections at the converter nodes.

Sign convention: the frequency state of converter i is the deviation that
enters its droop law, i.e. at steady state p_i = p_ref_i + x_i * freq_dev,
so an island power surplus settles at a positive common deviation equal to
surplus / stiffness.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_F_NOM_HZ, DroopAssignment, GridScenario, ScenarioError
from .core import kron_reduction  # noqa: F401  the benchmark tracer's hook; nothing here calls it

DEFAULT_TAU = 0.02
DEFAULT_DT = 1e-3
DEFAULT_T_END = 2.0

# Smallest coupling eigenvalue, relative to the largest, that counts as positive.
_STABILITY_MARGIN = 1e-10
_DIVERGENCE_LIMIT = 1e6
# The Laplacian's zero mode is an exact eigenvalue 1 of the step matrix, which
# rounding moves by a few 1e-16; growth beyond this is a genuinely unstable step.
_RK4_GROWTH_TOL = 1e-9
#: Most RK4 steps one ``simulate`` call takes; more are rejected before allocating.
MAX_STEPS = 10**7
#: Most bytes of trajectory and state arrays one ``simulate`` call may allocate:
#: ``times``, ``freq`` and ``power`` over every sample plus one segment's
#: ``states``, ``8 * (1 + 4 n)`` bytes per sample for n converters.  At n = 6
#: that admits about 1.3 million steps; larger runs are rejected before allocating.
MAX_TRAJECTORY_BYTES = 2**28
# Largest distance of t/dt from an integer still accepted as on the step grid.
_GRID_TOL = 1e-6
# Rows per formatted block of trajectory CSV: big enough to amortise the
# per-block work, small enough that one block's Python objects stay small.
_CSV_BLOCK_ROWS = 4096


class UnstableModelError(RuntimeError):
    """The model has an eigenvalue with non-negative real part."""


class SimulationDiverged(RuntimeError):
    """The time step is unstable for the model, or the state norm blew past
    the divergence guard during integration."""


@dataclass(frozen=True)
class DynamicModel:
    """State-space matrices of the droop-controlled network.

    States are stacked (angles, frequency deviations); disturbances enter as
    power offsets at the converter terminals; outputs are the frequency
    deviations.  Full models carry the scenario, assignment and wind map they
    were built from, so they can be simulated and rebuilt after an outage;
    a model whose ``scenario`` is None (reduced or grounded) is for norm
    computations only; a reduced one keeps its Laplacian eigenvectors in ``modes``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: float
    k_f: np.ndarray
    L_B: np.ndarray
    wind_map: np.ndarray | None = None
    scenario: GridScenario | None = None
    assignment: DroopAssignment | None = None
    modes: np.ndarray | None = None


def _droop_matrices(
    coupling: np.ndarray, inputs: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, B, C of m droop loops over (angles, frequency deviations).

    Angles integrate the frequencies; each frequency is a first-order filter
    with time constant tau on the gain-weighted flows ``coupling @ angles``
    (coupling is m x m) and on the disturbances, which ``inputs`` (m x p)
    maps to the loops; the outputs are the frequencies.  A tau so small that
    A or B overflows raises ScenarioError.
    """
    m = coupling.shape[0]
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = np.eye(m)
    b = np.zeros((2 * m, inputs.shape[1]))
    with np.errstate(over="ignore"):  # an overflow is caught below
        a[m:, :m] = -coupling / tau
        a[m:, m:] = -np.eye(m) / tau
        b[m:, :] = -inputs / tau
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ScenarioError(f"measurement time constant tau={tau} is so small that the "
                            "model's A or B matrix overflows")
    c = np.zeros((m, 2 * m))
    c[:, m:] = np.eye(m)
    return a, b, c


def assemble_model(
    scenario: GridScenario, assignment: DroopAssignment, tau: float = DEFAULT_TAU
) -> DynamicModel:
    """Build the full model of a scenario under a gain assignment."""
    if not (math.isfinite(tau) and tau > 0):
        raise ScenarioError(f"measurement time constant tau={tau} must be positive and finite")
    if assignment.n != scenario.n:
        raise ScenarioError("assignment does not match scenario converter count")

    lap, wind_map = scenario.reduced_network
    k = np.asarray(assignment.k_f)
    a, b, c = _droop_matrices(k[:, None] * lap, np.diag(k), tau)
    return DynamicModel(A=a, B=b, C=c, tau=tau, k_f=k, L_B=lap, wind_map=wind_map,
                        scenario=scenario, assignment=assignment)


def reduce_grounded(model: DynamicModel) -> DynamicModel:
    """Drop the rigid-rotation coordinate of a full model.

    The network Laplacian is diagonalized by an orthogonal change of angle
    and frequency variables; the coordinate carried by the zero eigenvalue
    is removed, which is the grounded-node picture of the same network.  The
    result has 2(n-1) states and is Hurwitz for any connected network.
    """
    if model.scenario is None:
        return model
    evals, u = np.linalg.eigh(model.L_B)
    if evals.size < 2 or evals[1] <= 1e-9:
        raise ScenarioError("network has a repeated zero eigenvalue (disconnected)")
    coupling = u.T @ (model.k_f[:, None] * model.L_B) @ u
    core = coupling[1:, 1:]
    gains_t = (u.T * model.k_f[None, :])[1:, :]  # rows of U^T K_f past the zero mode
    a, b, c = _droop_matrices(core, gains_t, model.tau)
    return DynamicModel(A=a, B=b, C=c, tau=model.tau, k_f=model.k_f, L_B=np.diag(evals[1:]),
                        modes=u[:, 1:])


def solve_continuous_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_continuous_lyapunov``; only the benchmark tracer's hook calls it."""
    from scipy.linalg import solve_continuous_lyapunov as solve

    return solve(a, q)


def h2_norm(model: DynamicModel) -> float:
    """Squared H2 norm in closed form from one symmetric eigendecomposition.

    The frequency coupling is similar to T = V diag(lam) V^T: K^1/2 L K^1/2 for a
    full or grounded model, W^T W with W = K^1/2 U Lam^1/2 for a reduced one.  Mode j
    is the loop tau s^2 + s + lam_j; with M, N the Gram matrices of the modes' output
    and input maps, H2^2 = sum_jl M_jl N_jl (lam_j + lam_l) / (2 tau [(tau/2)
    (lam_j - lam_l)^2 + lam_j + lam_l]).  Raises UnstableModelError unless every lam
    is positive, the exact Hurwitz test; the full model's zero mode fails it.
    """
    if not np.any(model.B):
        return 0.0
    root_k, tau = np.sqrt(model.k_f)[:, None], model.tau
    if model.modes is None:
        lam, v = np.linalg.eigh(root_k * model.L_B * root_k.T)
        out = inp = root_k * v  # M = N = V^T K V
    else:
        root_lam = np.sqrt(np.diag(model.L_B))
        w = root_k * model.modes * root_lam
        lam, v = np.linalg.eigh(w.T @ w)
        out, inp = v / root_lam[:, None], root_k * (w @ v)
    if not lam[0] > _STABILITY_MARGIN * lam[-1]:
        raise UnstableModelError(f"unstable model: coupling mode eigenvalue {lam[0]:.3e} "
                                 f"is not positive (largest {lam[-1]:.3e})")
    total = lam[:, None] + lam
    shape = total / (0.5 * tau * (lam[:, None] - lam) ** 2 + total) / (2.0 * tau)
    return float(np.sum((out.T @ out) * (inp.T @ inp) * shape))


def equal_gain_h2(n: int, k: float, tau: float) -> float:
    """Closed-form squared norm of the reduced equal-gain network."""
    return (n - 1) * k**2 / (2.0 * tau)


def attached_node_h2(k_m: float, tau: float) -> float:
    """Closed-form squared norm of one converter tied to the grounded node."""
    return k_m**2 / (2.0 * tau)


def _grounded_system(lap_grounded: np.ndarray, gains: np.ndarray, tau: float) -> DynamicModel:
    """Model of a network whose reference node has been removed."""
    a, b, c = _droop_matrices(gains[:, None] * lap_grounded, np.diag(gains), tau)
    return DynamicModel(A=a, B=b, C=c, tau=tau, k_f=gains, L_B=lap_grounded)


@dataclass(frozen=True)
class H2Decomposition:
    """Both sides of the attached-pair decoupling check."""

    full: float
    parts: float
    base: float
    m1: float
    m2: float
    pair_sum: float
    eps: float
    m1_gain: float
    m2_gain: float

    @property
    def identity_residual(self) -> float:
        """eps should equal pair_sum**2 - 2*k1*k2 exactly."""
        return abs(self.eps - (self.pair_sum**2 - 2.0 * self.m1_gain * self.m2_gain))


def h2_decomposition_check(
    model: DynamicModel,
    k_m1: float,
    k_m2: float,
    b_m1: float = 1.0,
    b_m2: float = 1.0,
) -> H2Decomposition:
    """Attach two extra converters to the grounded node and compare norms.

    The last converter is the grounded node.  Grounding severs the
    coupling, so the assembled system's squared norm must equal the sum of
    the base network's and the two single-node subsystems'; both sides are
    computed independently, each by its own ``h2_norm``.
    """
    if model.scenario is None:
        raise ScenarioError("decomposition check needs the full model")
    keep = list(range(model.scenario.n - 1))
    lap_base = model.L_B[np.ix_(keep, keep)]
    gains_base = model.k_f[keep]

    base_sys = _grounded_system(lap_base, gains_base, model.tau)
    m1_sys = _grounded_system(np.array([[b_m1]]), np.array([k_m1]), model.tau)
    m2_sys = _grounded_system(np.array([[b_m2]]), np.array([k_m2]), model.tau)

    m = lap_base.shape[0]
    lap_ext = np.zeros((m + 2, m + 2))
    lap_ext[:m, :m] = lap_base
    lap_ext[m, m] = b_m1
    lap_ext[m + 1, m + 1] = b_m2
    gains_ext = np.concatenate([gains_base, [k_m1, k_m2]])
    full_sys = _grounded_system(lap_ext, gains_ext, model.tau)

    base = h2_norm(base_sys)
    h_m1 = h2_norm(m1_sys)
    h_m2 = h2_norm(m2_sys)
    return H2Decomposition(
        full=h2_norm(full_sys),
        parts=base + h_m1 + h_m2,
        base=base,
        m1=h_m1,
        m2=h_m2,
        pair_sum=k_m1 + k_m2,
        eps=2.0 * model.tau * (h_m1 + h_m2),
        m1_gain=k_m1,
        m2_gain=k_m2,
    )


# ---------------------------------------------------------------------------
# Time-domain simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindStep:
    """Step change of the injection at a wind node, in per-unit."""

    time: float
    node: str
    delta_pu: float


@dataclass(frozen=True)
class ConverterOutage:
    """Trip of one converter; its node stays in the network as a passive bus."""

    time: float
    converter_id: str


Event = WindStep | ConverterOutage


@dataclass
class Trajectory:
    """Sampled frequency deviations and converter powers.

    Frequency columns of an outaged converter are NaN after the trip; its
    power column is zero (breaker open).
    """

    time: np.ndarray
    converter_ids: tuple[str, ...]
    freq_pu: np.ndarray
    p_pu: np.ndarray
    events: tuple[Event, ...]
    f_nom_hz: float = DEFAULT_F_NOM_HZ

    @property
    def freq_hz(self) -> np.ndarray:
        return self.freq_pu * self.f_nom_hz

    def total_power(self) -> np.ndarray:
        return self.p_pu.sum(axis=1)


def _rk4_step_matrices(a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact matrices of one classical 4th-order step on a linear system.

    For x' = A x + g with constant g the classical scheme reduces to
    x+ = Phi x + Gamma g with the fourth-order Taylor truncations below.
    """
    eye = np.eye(a.shape[0])
    ha = dt * a
    phi = eye + ha @ (eye + ha @ (eye / 2 + ha @ (eye / 6 + ha / 24)))
    gamma = dt * (eye + ha @ (eye / 2 + ha @ (eye / 6 + ha / 24)))
    return phi, gamma


def _rk4_growth(z: np.ndarray) -> np.ndarray:
    """Amplification |R(z)| of one classical RK4 step on the mode x' = lambda x, z = dt*lambda."""
    return np.abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24))))


def _check_step_stable(a: np.ndarray, phi: np.ndarray, dt: float, t_start: float) -> None:
    """Reject a step whose matrix amplifies some mode, before integrating with it.

    The message names the largest stable step, found by bisection on the
    amplification of the eigenvalues of ``a`` (the eigenvalues of ``phi`` are
    their images under the RK4 polynomial).  The bisection runs on a log scale
    from the smallest positive float, a step no finite mode is amplified by,
    so it names a positive step however stiff ``a`` is; the step is rounded
    down to four digits, so the named step is stable too.
    """
    rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if rho <= 1 + _RK4_GROWTH_TOL:
        return
    lam = np.linalg.eigvals(a)
    lo, hi = math.ulp(0.0), dt
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi:
        if np.max(_rk4_growth(mid * lam)) <= 1 + _RK4_GROWTH_TOL:
            lo = mid
        else:
            hi = mid
    from decimal import ROUND_FLOOR, Context  # only on this error path

    largest = float(Context(prec=4, rounding=ROUND_FLOOR).create_decimal(lo))
    raise SimulationDiverged(
        f"time step dt={dt:g}s is unstable from t={t_start:g}s (RK4 step matrix has "
        f"spectral radius {rho:.6g}); the largest stable dt is {largest:.4g}s"
    )


def _equilibrium(model: DynamicModel, wind: np.ndarray) -> np.ndarray:
    """State at which every converter sits on its droop characteristic."""
    x_inv = 1.0 / model.k_f
    alpha = float(x_inv.sum())
    eff = model.wind_map @ wind
    p_ref = model.scenario.p_ref
    dev = (float(eff.sum()) - float(p_ref.sum())) / alpha
    target = p_ref + x_inv * dev
    theta, *_ = np.linalg.lstsq(model.L_B, eff - target, rcond=None)
    n = model.L_B.shape[0]
    state = np.zeros(2 * n)
    state[:n] = theta
    state[n:] = dev
    return state


def simulate(
    model: DynamicModel,
    events: list[Event] | tuple[Event, ...] = (),
    dt: float = DEFAULT_DT,
    t_end: float = DEFAULT_T_END,
) -> Trajectory:
    """Integrate the model from equilibrium through the given events.

    A wind step changes the corresponding injection; an outage removes the
    converter's states, turns its node passive (the network is re-reduced),
    and leaves the stranded set-point as a persistent imbalance.  The final
    steady state therefore matches the closed-form post-fault sharing.  Every
    event is checked, in time order, before the first step.
    """
    if model.scenario is None or model.assignment is None:
        raise ScenarioError("simulation needs a model built by assemble_model")
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ScenarioError("dt and t_end must be positive and finite")
    step_count = t_end / dt  # a float: inf when dt is subnormal
    if not step_count <= MAX_STEPS:
        raise ScenarioError(f"dt={dt:g}s and t_end={t_end:g}s need {step_count:.3g} steps, "
                            f"more than the {MAX_STEPS:,} a simulation may take")
    n_steps = int(round(step_count))
    n_all = model.scenario.n
    trajectory_bytes = 8 * (n_steps + 1) * (1 + 4 * n_all)
    if trajectory_bytes > MAX_TRAJECTORY_BYTES:
        raise ScenarioError(f"dt={dt:g}s and t_end={t_end:g}s need {trajectory_bytes:,} bytes "
                            f"of trajectory and state arrays, more than the "
                            f"{MAX_TRAJECTORY_BYTES:,} a simulation may allocate")
    for ev in events:
        if not 0.0 <= ev.time <= t_end:
            raise ScenarioError(f"event at t={ev.time:g}s outside horizon [0, {t_end:g}]s")
        steps = ev.time / dt
        if abs(steps - round(steps)) > _GRID_TOL:
            raise ScenarioError(
                f"event at t={ev.time:.12g}s is off the dt={dt:g}s step grid; the nearest "
                f"grid times are {math.floor(steps) * dt:.12g}s and {math.ceil(steps) * dt:.12g}s"
            )
    ordered = sorted(events, key=lambda e: (e.time, isinstance(e, WindStep)))
    wind_nodes = {node for node, _ in model.scenario.wind_injections}
    tripped: set[str] = set()
    for ev in ordered:
        if isinstance(ev, WindStep):
            if ev.node not in wind_nodes:
                raise ScenarioError(f"wind step at unknown wind node {ev.node!r}")
            continue
        model.scenario.converter_index(ev.converter_id)  # raises on an unknown id
        if ev.converter_id in tripped:
            raise ScenarioError(f"outage at t={ev.time:g}s of converter "
                                f"{ev.converter_id!r}, which is already tripped")
        tripped.add(ev.converter_id)
        if n_all - len(tripped) < 2:
            raise ScenarioError("cannot simulate an outage below 2 converters")

    all_ids = model.scenario.ids
    times = np.arange(n_steps + 1) * dt
    freq = np.full((n_steps + 1, n_all), np.nan)
    power = np.zeros((n_steps + 1, n_all))

    cur = model
    wind = np.array([p for _, p in model.scenario.wind_injections], dtype=float)
    state = _equilibrium(cur, wind)

    breakpoints = [(int(round(e.time / dt)), e) for e in ordered]
    breakpoints.append((n_steps, None))

    col_of = {cid: j for j, cid in enumerate(all_ids)}
    start = 0
    for stop, event in breakpoints:
        stop = min(max(stop, start), n_steps)
        scen = cur.scenario
        m = scen.n
        lap = cur.L_B
        eff = cur.wind_map @ wind
        g = np.zeros(2 * m)
        g[m:] = cur.k_f * (eff - scen.p_ref) / cur.tau
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            phi, gamma = _rk4_step_matrices(cur.A, dt)
        if not (np.isfinite(phi).all() and np.isfinite(gamma).all()):
            raise SimulationDiverged(f"time step dt={dt:g}s overflows the RK4 step matrix at "
                                     f"measurement time constant tau={cur.tau:g}s")
        _check_step_stable(cur.A, phi, dt, start * dt)
        drive = gamma @ g

        states = np.empty((stop - start + 1, 2 * m))
        states[0] = state
        buf = np.empty(2 * m)
        with np.errstate(over="ignore", invalid="ignore"):
            # each step writes its successor row in place: no array per step
            for j, (row, successor) in enumerate(zip(states[:-1], states[1:])):
                if j % 256 == 0 and not np.all(np.abs(row) < _DIVERGENCE_LIMIT):
                    raise SimulationDiverged(
                        f"state magnitude beyond {_DIVERGENCE_LIMIT:g} at "
                        f"t={(start + j) * dt:g}s; check gains and time step"
                    )
                np.add(np.dot(phi, row, out=buf), drive, out=successor)
        state = states[-1]
        if not np.all(np.abs(state) < _DIVERGENCE_LIMIT):
            raise SimulationDiverged(
                f"state magnitude beyond {_DIVERGENCE_LIMIT:g} at t={stop * dt:g}s; "
                "check gains and time step"
            )

        cols = [col_of[cid] for cid in scen.ids]
        freq[start : stop + 1, cols] = states[:, m:]
        power[start : stop + 1, cols] = states[:, :m] @ (-lap.T) + eff

        if event is None:
            break
        if isinstance(event, WindStep):
            wind[[node for node, _ in scen.wind_injections].index(event.node)] += event.delta_pu
        else:
            gone = scen.converter_index(event.converter_id)
            keep = [i for i in range(scen.n) if i != gone]
            survivors = dataclasses.replace(
                scen, converters=tuple(scen.converters[i] for i in keep)
            )
            cur = assemble_model(survivors, DroopAssignment(cur.assignment.x[keep]), cur.tau)
            # survivors keep their angle and frequency states across the trip;
            # the sample at the event instant reflects the post-event network
            state = np.concatenate([state[:m][keep], state[m:][keep]])
            freq[stop, col_of[event.converter_id]] = np.nan
            power[stop, col_of[event.converter_id]] = 0.0
        start = stop

    return Trajectory(
        time=times,
        converter_ids=all_ids,
        freq_pu=freq,
        p_pu=power,
        events=tuple(ordered),
        f_nom_hz=model.scenario.base.f_nom_hz,
    )


def trajectory_to_csv(traj: Trajectory) -> str:
    """Plot-ready CSV: time, per-converter frequency, per-converter power."""
    lines = []
    for ev in traj.events:
        if isinstance(ev, WindStep):
            lines.append(f"# event: wind step {ev.node} {ev.delta_pu:+.12g} pu @ {ev.time:.12g}s")
        else:
            lines.append(f"# event: outage {ev.converter_id} @ {ev.time:.12g}s")
    header = ["time_s"]
    header += [f"freq_pu_{cid}" for cid in traj.converter_ids]
    header += [f"p_pu_{cid}" for cid in traj.converter_ids]
    lines.append(",".join(header))
    # A cell's text depends only on its float's bits: "%.12g" % float gives
    # f"{float:.12g}" (nan, inf and -0 included), and keying on the uint64
    # bits keeps -0.0 apart from 0.0 and one NaN payload from another.  So
    # each block formats its distinct values once, in one call, and gathers
    # its cells from them; trajectories repeat values (settled states, the
    # NaN and zero columns of a tripped converter), so that is a fraction of
    # the cells.  Working one block of rows at a time, gathered into one
    # reused buffer, bounds the writer's memory as MAX_TRAJECTORY_BYTES bounds
    # simulate's: none of the writer's arrays spans the whole table.
    parts = ["\n".join(lines) + "\n"]
    buf = np.empty((min(traj.time.size, _CSV_BLOCK_ROWS), 1 + 2 * len(traj.converter_ids)))
    for start in range(0, traj.time.size, _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        block = buf[: traj.time[rows].size]
        np.concatenate([traj.time[rows, None], traj.freq_pu[rows], traj.p_pu[rows]], axis=1,
                       out=block)
        bits, inverse = np.unique(block.ravel().view(np.uint64), return_inverse=True)
        texts = "\n".join(["%.12g"] * bits.size) % tuple(bits.view(np.float64).tolist())
        cells = np.empty((block.shape[0], 2 * block.shape[1]), dtype=object)
        cells[:, 0::2] = np.array(texts.split("\n"), dtype=object)[inverse].reshape(block.shape)
        cells[:, 1::2] = ","
        cells[:, -1] = "\n"
        parts.append("".join(cells.ravel().tolist()))
    return "".join(parts)
