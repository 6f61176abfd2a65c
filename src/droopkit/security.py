"""Steady-state frequency and power sharing after a converter outage.

The closed forms here are the workhorse of every security check: the loss of
converter k leaves a surplus p_ref_k in the island, the common frequency
deviation settles at p_ref_k over the surviving stiffness, and each survivor
picks up a share proportional to its inverse gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DroopAssignment, GridScenario, ScenarioError, deviation_hz, from_per_unit

#: Post-fault exceedances below this (pu) are treated as numerical noise.
VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class ContingencyReport:
    """Steady-state outcome of a single converter outage."""

    outage_id: str
    ssfd_hz: float
    survivor_ids: tuple[str, ...]
    p_pre: np.ndarray
    p_post: np.ndarray
    p_limit: np.ndarray
    violations: tuple[tuple[str, float], ...]

    @property
    def secure(self) -> bool:
        return not self.violations


def droop_response(p_ref: float, x: float, delta_omega: float) -> float:
    """Steady-state power of one converter under a frequency deviation."""
    if x <= 0:
        raise ScenarioError("inverse droop gain must be positive")
    return p_ref + x * delta_omega


def post_fault_sharing(
    x: np.ndarray, p_ref: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form outcome of every single-converter outage.

    ``delta[k] = p_ref[k] / (alpha - x[k])`` is the SSFD (pu) after losing
    converter k, and ``flows[k, i] = p_ref[i] + x[i] * delta[k]`` is the power
    converter i settles at; the diagonal ``flows[k, k]`` is not a survivor.
    ``x`` and ``p_ref`` may be stacked on leading axes (``(H, n)`` in gives
    ``delta`` of ``(H, n)`` and ``flows`` of ``(H, n, n)``); ``alpha`` is a scalar.
    """
    delta = p_ref / (alpha - x)
    flows = x[..., None, :] * delta[..., :, None]
    flows += p_ref[..., None, :]  # in place: a stack of hours needs no second (H, n, n) array
    return delta, flows


def post_fault_excess(
    x: np.ndarray, p_ref: np.ndarray, p_max: np.ndarray, alpha: float
) -> np.ndarray:
    """``excess[..., k, i] = |flows[..., k, i]| - p_max[i]`` (pu) after losing
    converter k; the diagonal is 0.0, as the tripped converter itself carries
    nothing.  Stacks on leading axes as ``post_fault_sharing`` does."""
    _, excess = post_fault_sharing(x, p_ref, alpha)
    np.abs(excess, out=excess)
    excess -= p_max
    diag = np.arange(excess.shape[-1])
    excess[..., diag, diag] = 0.0
    return excess


def _sharing(assignment: DroopAssignment, scenario: GridScenario, p_ref: np.ndarray):
    """``post_fault_sharing`` of an assignment at ``p_ref``, the scenario's set-points;
    a gain that swamps the rest, so that ``alpha - x_k`` rounds to 0, raises."""
    if assignment.n != scenario.n:
        raise ScenarioError(
            f"assignment has {assignment.n} gains but scenario has {scenario.n} converters"
        )
    k = int(assignment.x.argmax())
    largest = float(assignment.x[k])
    surviving = assignment.alpha - largest
    if not surviving > 0:
        raise ScenarioError(f"converter {scenario.ids[k]}: inverse droop gain x={largest!r} "
                            f"leaves no surviving stiffness (alpha - x = {surviving!r})")
    return post_fault_sharing(assignment.x, p_ref, assignment.alpha)


def ssfd(assignment: DroopAssignment, scenario: GridScenario, outage_id: str) -> float:
    """Steady-state frequency deviation (pu) after losing one converter."""
    delta, _ = _sharing(assignment, scenario, scenario.p_ref)
    return float(delta[scenario.converter_index(outage_id)])


def post_fault_flows(
    assignment: DroopAssignment, scenario: GridScenario, outage_id: str
) -> np.ndarray:
    """Post-outage converter powers (pu), over survivors in scenario order."""
    _, flows = _sharing(assignment, scenario, scenario.p_ref)
    k = scenario.converter_index(outage_id)
    return flows[k, np.arange(scenario.n) != k]


def screen_all_contingencies(
    assignment: DroopAssignment, scenario: GridScenario
) -> list[ContingencyReport]:
    """One report per converter outage.

    A scenario is N-1 secure for the assignment iff every report is secure;
    security is decided on the active-power limits.
    """
    p_ref, p_max, ids = scenario.p_ref, scenario.p_max, scenario.ids
    deltas, flows = _sharing(assignment, scenario, p_ref)
    excesses = post_fault_excess(assignment.x, p_ref, p_max, assignment.alpha)
    reports = []
    for k, outage_id in enumerate(ids):
        mask = np.arange(scenario.n) != k
        survivors = ids[:k] + ids[k + 1 :]
        violations = [
            (cid, float(excess))
            for cid, excess in zip(survivors, excesses[k, mask])
            if excess > VIOLATION_TOL
        ]
        reports.append(
            ContingencyReport(
                outage_id=outage_id,
                ssfd_hz=deviation_hz(float(deltas[k]), scenario.base),
                survivor_ids=survivors,
                p_pre=p_ref[mask],
                p_post=flows[k, mask],
                p_limit=p_max[mask],
                violations=tuple(violations),
            )
        )
    return reports


def is_secure(assignment: DroopAssignment, scenario: GridScenario) -> bool:
    return all(r.secure for r in screen_all_contingencies(assignment, scenario))


def reports_to_csv(reports: list[ContingencyReport], scenario: GridScenario) -> str:
    """Render screening reports as CSV, powers in MW."""
    lines = ["outage_id,converter_id,p_pre_mw,p_post_mw,limit_mw,violation_mw,ssfd_hz"]
    for rep in reports:
        violated = dict(rep.violations)
        for cid, pre, post, lim in zip(rep.survivor_ids, rep.p_pre, rep.p_post, rep.p_limit):
            excess = violated.get(cid, 0.0)
            lines.append(
                f"{rep.outage_id},{cid},"
                f"{from_per_unit(pre, scenario.base):.12g},"
                f"{from_per_unit(post, scenario.base):.12g},"
                f"{from_per_unit(lim, scenario.base):.12g},"
                f"{from_per_unit(excess, scenario.base):.12g},"
                f"{rep.ssfd_hz:.12g}"
            )
    return "\n".join(lines) + "\n"
