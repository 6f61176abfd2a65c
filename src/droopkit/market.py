"""Capacity planning loop coupling market clearing to droop feasibility.

A transparent transport-model clearing stands in for a full market: wind is
offered at zero marginal cost against per-link bid curves, so welfare is
maximized by filling the highest-priced segments first subject to link
capacity and the wind budget.  Each hour is then screened for N-1 security;
when the configured droop policy cannot secure the cleared flows, capacity
is withdrawn in fixed steps on the violated links and the hour is cleared
again until the screen passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .core import DroopAssignment, GridScenario, ScenarioError, _readonly
from .droop_opt import (DEFAULT_ALPHA, DEFAULT_PSI, DroopProblem, equal_gains_test,
                        solve_problem)
from .security import VIOLATION_TOL, post_fault_excess
from .security import screen_all_contingencies  # noqa: F401  (patched by the benchmark tracer)

DEFAULT_STEP_MW = 50.0


#: Base prices (EUR/MWh) of the "diurnal" fixture; other links bid 50.
_BASE_PRICE = {"UK": 62.0, "DE": 55.0, "NL": 52.0, "DK": 49.0, "NO": 45.0, "BE": 58.0}
_BID_FIXTURES = ("flat", "diurnal")
#: Shares of a link's offer bid by its two segments.
_SEGMENT_SHARES = (0.6, 0.4)


@cache
def _price_order(fixture: str, hour_of_day: int,
                 link_ids: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """``(link, segment)`` pairs of a fixture's bid curves by descending price,
    then link index, then segment.

    "flat" prices every link at 50 EUR/MWh; "diurnal" layers a daily swing on
    the country base prices, so a price depends only on the hour of day and
    the link.
    """
    bids = []
    for j, cid in enumerate(link_ids):
        if fixture == "flat":
            price = 50.0
        else:
            base = _BASE_PRICE.get(cid, 50.0)
            price = base + 8.0 * math.sin(2.0 * math.pi * hour_of_day / 24.0 + 0.4 * j)
        bids += [(-price, j, 0), (-0.55 * price, j, 1)]
    return tuple([(j, s) for _, j, s in sorted(bids)])


@dataclass(frozen=True)
class HourScenario:
    """Market inputs of one hour: wind, offered link capacities and the name
    of the bid fixture, ``flat`` or ``diurnal``, that prices them.

    Every link bids two segments, 0.6 of its offer at the fixture's price and
    0.4 at 0.55 times that price (see ``_price_order``).
    """

    hour: int
    wind_mw: float
    link_ids: tuple[str, ...]
    offered_mw: np.ndarray
    bid_fixture: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_ids", tuple(self.link_ids))
        object.__setattr__(self, "offered_mw", _readonly(self.offered_mw))
        if len(self.link_ids) != self.offered_mw.size:
            raise ScenarioError("link ids and capacities must align")
        if self.bid_fixture not in _BID_FIXTURES:
            raise ScenarioError(f"hour {self.hour}: unknown bid fixture {self.bid_fixture!r}")
        for name, values in (("wind_mw", (self.wind_mw,)),
                             ("offered_mw", self.offered_mw.tolist())):
            if not all(0 <= v < math.inf for v in values):
                raise ScenarioError(f"hour {self.hour}: {name} must be finite and non-negative")

    @cached_property
    def merit_order(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Links and quantities of every segment with a positive quantity, by
        descending price, then link index, then segment position.
        Two flat tuples hold a year of hours in about half the memory of one
        ``(link, quantity)`` pair per segment (3.4 against 6.8 MiB at 8760 h)."""
        offered = self.offered_mw.tolist()
        links, quantities = [], []
        for j, s in _price_order(self.bid_fixture, self.hour % 24, self.link_ids):
            quantity = _SEGMENT_SHARES[s] * offered[j]
            if quantity > 0:
                links.append(j)
                quantities.append(quantity)
        return tuple(links), tuple(quantities)


def clear_market(hour: HourScenario, capacities_mw: np.ndarray | None = None) -> np.ndarray:
    """Welfare-maximizing flows (MW per link) under capacity and wind limits.

    Deterministic: segments are filled in the hour's merit order; the rest of
    the wind is curtailed.
    """
    caps = np.asarray(hour.offered_mw if capacities_mw is None else capacities_mw, dtype=float)
    if caps.size != len(hour.link_ids):
        raise ScenarioError("capacity vector does not match links")
    caps = caps.tolist()
    flows = [0.0] * len(caps)
    wind_left = hour.wind_mw
    for li, qty in zip(*hour.merit_order):
        if wind_left <= 0:
            break
        take = min(qty, caps[li] - flows[li], wind_left)
        if take > 0:
            flows[li] += take
            wind_left -= take
    return np.array(flows)


@dataclass
class HourRecord:
    """Final, N-1-secure state of one planned hour."""

    hour: int
    link_ids: tuple[str, ...]
    offered_mw: np.ndarray
    capacity_mw: np.ndarray
    flow_mw: np.ndarray
    reduced_mw: np.ndarray
    iterations: int
    curtailed_mwh: float
    droop_status: str
    x: np.ndarray


@dataclass
class PlanningRun:
    """Per-hour planning records for one policy."""

    policy: str
    alpha: float
    step_mw: float
    link_ids: tuple[str, ...]
    records: list[HourRecord] = field(default_factory=list)

    @property
    def total_curtailed_mwh(self) -> float:
        return float(sum(r.curtailed_mwh for r in self.records))


def _check_step_mw(step_mw: float) -> None:
    if not 0 < step_mw < math.inf:
        raise ScenarioError(f"step_mw={step_mw:g} must be finite and positive")


def _usable_mw(template: GridScenario) -> np.ndarray:
    """Largest capacity (MW) an hour may offer per converter, with a 1e-9 slack."""
    return template.ratings_mva * template.p_max + 1e-9


def _check_hour(template: GridScenario, hour: HourScenario, policy: str,
                usable_mw: np.ndarray) -> None:
    if hour.link_ids != template.ids:
        raise ScenarioError("hour links do not match scenario converters")
    if policy not in ("equal", "adaptive"):
        raise ScenarioError(f"unknown policy {policy!r}")
    if (hour.offered_mw > usable_mw).any():
        raise ScenarioError(
            f"hour {hour.hour}: offered capacity exceeds a converter's usable rating"
        )


def _equal_gains(template: GridScenario, alpha: float) -> DroopAssignment:
    equal = DroopAssignment.equal(alpha, template.n)
    if np.any(equal.x < template.x_min - 1e-12):
        raise ScenarioError("equal policy violates the gain lower bounds")
    return equal


def _record(template: GridScenario, hour: HourScenario, caps: np.ndarray, flows: np.ndarray,
            iterations: int, status: str, x: np.ndarray) -> HourRecord:
    offered = np.array(hour.offered_mw)
    return HourRecord(
        hour=hour.hour,
        link_ids=template.ids,
        offered_mw=offered,
        capacity_mw=caps,
        flow_mw=flows,
        reduced_mw=offered - caps,
        iterations=iterations,
        curtailed_mwh=float(hour.wind_mw - flows.sum()),
        droop_status=status,
        x=x.copy(),
    )


def plan_hour(
    template: GridScenario,
    hour: HourScenario,
    policy: str = "adaptive",
    step_mw: float = DEFAULT_STEP_MW,
    alpha: float = DEFAULT_ALPHA,
    backend: str = "oracle",
    psi: int = DEFAULT_PSI,
) -> HourRecord:
    """Clear, check and reduce one hour until it is N-1 secure.

    Policy "equal" keeps the gains fixed at alpha/n and only screens; policy
    "adaptive" re-optimizes the gains for the cleared flows.  Capacity is
    withdrawn in ``step_mw`` blocks on the converters whose limits would be
    violated; zero capacity clears to zero flows, so the loop ends, unless the
    backend finds no gains even then, which raises ScenarioError.
    """
    _check_step_mw(step_mw)
    _check_hour(template, hour, policy, _usable_mw(template))
    equal = _equal_gains(template, alpha)
    s_base, x_min, p_max = template.base.s_base_mva, template.x_min, template.p_max

    caps = np.array(hour.offered_mw, dtype=float)
    iterations = 0
    while True:
        flows = clear_market(hour, caps)
        p_ref = flows / s_base
        status, x = "equal", equal.x
        if policy == "adaptive":
            sol = solve_problem(DroopProblem(float(alpha), x_min, p_ref, p_max, psi),
                                backend=backend)
            status = sol.status
            # without gains, the equal screen finds the converters that force the reduction
            x = sol.assignment.x if status == "optimal" else equal.x
        excess = post_fault_excess(x, p_ref, p_max, float(x.sum()))
        violated = (excess > VIOLATION_TOL).any(axis=0)
        if status not in ("equal", "optimal") and not violated.any():
            violated[np.argmax(np.abs(flows))] = True

        if not violated.any():
            return _record(template, hour, caps, flows, iterations, status, x)

        iterations += 1
        if not (caps[violated] > 0).any():
            # violated links already at zero: shrink every loaded link
            violated = caps > 0
            if not violated.any():  # no gains even at zero flows: nothing left to withdraw
                raise ScenarioError(f"hour {hour.hour}: the {backend} backend finds no gains "
                                    f"even at zero flows: {sol.note or sol.status}")
        caps[violated] = np.maximum(0.0, caps[violated] - step_mw)


def plan(
    template: GridScenario,
    hours: list[HourScenario],
    policy: str = "adaptive",
    step_mw: float = DEFAULT_STEP_MW,
    alpha: float = DEFAULT_ALPHA,
    backend: str = "oracle",
    psi: int = DEFAULT_PSI,
) -> PlanningRun:
    """``plan_hour`` for every hour in hour order; one stacked screen spares it the secure ones."""
    _check_step_mw(step_mw)
    run = PlanningRun(policy=policy, alpha=alpha, step_mw=step_mw, link_ids=template.ids)
    ordered = sorted(hours, key=lambda h: h.hour)
    if not ordered:
        return run
    options = dict(policy=policy, step_mw=step_mw, alpha=alpha, backend=backend, psi=psi)
    run.records = [plan_hour(template, ordered[0], **options)]
    usable, rest = _usable_mw(template), ordered[1:]
    for i, hour in enumerate(rest):
        try:
            _check_hour(template, hour, policy, usable)
        except ScenarioError:  # the hours before it raise their solve errors first
            for earlier in rest[:i]:
                plan_hour(template, earlier, **options)
            raise
    x = _equal_gains(template, alpha).x
    flows = [clear_market(hour) for hour in rest]
    p_ref = np.reshape(flows, (-1, x.size)) / template.base.s_base_mva
    excess = post_fault_excess(x, p_ref, template.p_max, float(x.sum()))
    direct = ~(excess > VIOLATION_TOL).any(axis=(1, 2))
    if policy == "adaptive":  # only where the oracle returns alpha/n: B&B and HiGHS may not
        direct &= backend == "oracle" and equal_gains_test(
            float(alpha), template.x_min, p_ref, template.p_max)[1]
    status = "optimal" if policy == "adaptive" else "equal"
    run.records += [
        _record(template, hour, np.array(hour.offered_mw, dtype=float), f, 0, status, x)
        if ok else plan_hour(template, hour, **options)
        for hour, f, ok in zip(rest, flows, direct.tolist())
    ]
    return run


@dataclass
class DurationCurves:
    """Descending-sorted capacities and flows per link, with totals."""

    link_ids: tuple[str, ...]
    capacity_sorted: dict[str, np.ndarray]
    flow_sorted: dict[str, np.ndarray]
    hours_at_full: dict[str, int]
    total_curtailed_mwh: float


def duration_curves(run: PlanningRun) -> DurationCurves:
    """Rearrange the per-hour outcomes in descending order per link."""
    caps = {cid: [] for cid in run.link_ids}
    flows = {cid: [] for cid in run.link_ids}
    full = {cid: 0 for cid in run.link_ids}
    for rec in run.records:
        for j, cid in enumerate(run.link_ids):
            caps[cid].append(rec.capacity_mw[j])
            flows[cid].append(rec.flow_mw[j])
            if rec.capacity_mw[j] >= rec.offered_mw[j] - 1e-9:
                full[cid] += 1
    return DurationCurves(
        link_ids=run.link_ids,
        capacity_sorted={cid: np.sort(np.array(v))[::-1] for cid, v in caps.items()},
        flow_sorted={cid: np.sort(np.array(v))[::-1] for cid, v in flows.items()},
        hours_at_full=full,
        total_curtailed_mwh=run.total_curtailed_mwh,
    )
