"""Domain model for droop-controlled zero-inertia island grids.

All internal computation is carried in per-unit on the system apparent-power
base; megawatts appear only at file and CLI boundaries.  The sign convention
for converter set-points is: p_ref > 0 means power flowing from the island
into the HVDC link (export), so the loss of converter k dumps a surplus of
p_ref_k back into the island.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_F_NOM_HZ = 50.0
DEFAULT_OMEGA_REF = 1.0
DEFAULT_P_MAX = 0.95
DEFAULT_X_MIN = 10.0
DEFAULT_STAR_SUSCEPTANCE = 10.0
ISLAND_BUS = "island"

#: Pre-fault power balance looser than this is reported as a warning.
BALANCE_TOL = 1e-9


class ScenarioError(ValueError):
    """Raised when a scenario object is structurally unusable."""


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ScenarioError(f"{what} must be finite, got {value!r}")


def _readonly(values: Iterable[float]) -> np.ndarray:
    arr = np.array(list(values), dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemBase:
    """Apparent-power and frequency base of the island system."""

    s_base_mva: float
    f_nom_hz: float = DEFAULT_F_NOM_HZ
    omega_ref: float = DEFAULT_OMEGA_REF

    def __post_init__(self) -> None:
        if self.s_base_mva <= 0:
            raise ScenarioError("s_base_mva must be positive")
        if self.f_nom_hz <= 0:
            raise ScenarioError("f_nom_hz must be positive")
        if self.omega_ref <= 0:
            raise ScenarioError("omega_ref must be positive")
        for name in ("s_base_mva", "f_nom_hz", "omega_ref"):
            _require_finite(name, getattr(self, name))


def to_per_unit(mw: float, base: SystemBase) -> float:
    """Convert a power in MW to per-unit on the system base."""
    return mw / base.s_base_mva


def from_per_unit(pu: float, base: SystemBase) -> float:
    """Convert a per-unit power back to MW."""
    return pu * base.s_base_mva


def deviation_hz(delta_omega_pu: float, base: SystemBase) -> float:
    """Express a per-unit frequency deviation in Hz."""
    return delta_omega_pu * base.f_nom_hz


@dataclass(frozen=True)
class Converter:
    """A grid-forming HVDC converter attached to the island.

    p_ref is the active-power set-point in per-unit on the *system* base,
    signed positive for export from the island.  p_max is the active-power
    limit left after reserving reactive capability; x_min is the lower bound
    on the inverse droop gain, equivalently an upper bound 1/x_min on the
    droop gain itself.
    """

    id: str
    rating_mva: float
    p_ref: float
    p_max: float = DEFAULT_P_MAX
    x_min: float = DEFAULT_X_MIN

    def __post_init__(self) -> None:
        if not self.id:
            raise ScenarioError("converter id must be non-empty")
        if self.rating_mva <= 0:
            raise ScenarioError(f"converter {self.id}: rating must be positive")
        if not 0 < self.p_max <= 1:
            raise ScenarioError(f"converter {self.id}: p_max must lie in (0, 1]")
        if self.x_min <= 0:
            raise ScenarioError(f"converter {self.id}: x_min must be positive")
        for name in ("rating_mva", "p_ref", "p_max", "x_min"):
            _require_finite(f"converter {self.id}: {name}", getattr(self, name))

    @property
    def headroom(self) -> float:
        """Active-power margin |p_max| - |p_ref| available post-fault (pu)."""
        return self.p_max - abs(self.p_ref)


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected susceptance-weighted graph of the island AC network.

    Edges are (node_i, node_j, b_ij) with b_ij > 0 in per-unit.  Connectivity
    is a validation finding, not a construction error, so screening tools can
    report it; everything else malformed raises at construction.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    grounded_node: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "edges", tuple((str(i), str(j), float(b)) for i, j, b in self.edges)
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise ScenarioError("duplicate node ids in network")
        known = set(self.nodes)
        for i, j, b in self.edges:
            if i == j:
                raise ScenarioError(f"self-loop at node {i}")
            if i not in known or j not in known:
                raise ScenarioError(f"edge ({i}, {j}) references unknown node")
            if b <= 0:
                raise ScenarioError(f"edge ({i}, {j}) must have positive susceptance")
        if self.grounded_node is not None and self.grounded_node not in known:
            raise ScenarioError(f"grounded node {self.grounded_node} not in network")
        for i, j, b in self.edges:
            _require_finite(f"edge ({i}, {j}) susceptance", b)

    def index(self, node: str) -> int:
        return self.nodes.index(node)

    def laplacian(self) -> np.ndarray:
        """Susceptance-weighted Laplacian ordered like ``nodes``."""
        n = len(self.nodes)
        pos = {node: i for i, node in enumerate(self.nodes)}
        lap = np.zeros((n, n))
        for i, j, b in self.edges:
            a, c = pos[i], pos[j]
            lap[a, a] += b
            lap[c, c] += b
            lap[a, c] -= b
            lap[c, a] -= b
        return lap

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        adj: dict[str, list[str]] = {node: [] for node in self.nodes}
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.nodes)


def kron_reduction(lap: np.ndarray, keep: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate all nodes not in ``keep`` from a Laplacian by Schur complement.

    Returns the reduced Laplacian over the kept nodes and the accompanying
    injection map: a (n_keep, n_elim) matrix sending injections at eliminated
    nodes to their equivalent injections at the kept nodes (columns sum to 1
    for a connected network).
    """
    n = lap.shape[0]
    keep = list(keep)
    drop = [i for i in range(n) if i not in set(keep)]
    if not drop:
        return lap.copy(), np.zeros((len(keep), 0))
    l_kk = lap[np.ix_(keep, keep)]
    l_kd = lap[np.ix_(keep, drop)]
    l_dd = lap[np.ix_(drop, drop)]
    try:
        sol = np.linalg.solve(l_dd, np.hstack([l_kd.T, np.eye(len(drop))]))
    except np.linalg.LinAlgError as exc:
        raise ScenarioError("cannot eliminate nodes of a disconnected network") from exc
    reduced = l_kk - l_kd @ sol[:, : len(keep)]
    inj_map = -l_kd @ sol[:, len(keep) :]
    return reduced, inj_map


@dataclass(frozen=True)
class GridScenario:
    """Converters, wind injections and network forming the planning input.

    The per-converter views (``ids``, ``p_ref``, ...) are computed once: the
    dataclass is frozen and the arrays are read-only.
    """

    base: SystemBase
    converters: tuple[Converter, ...]
    wind_injections: tuple[tuple[str, float], ...]
    network: NetworkGraph

    def __post_init__(self) -> None:
        object.__setattr__(self, "converters", tuple(self.converters))
        object.__setattr__(
            self,
            "wind_injections",
            tuple((str(node), float(p)) for node, p in self.wind_injections),
        )
        if len(self.converters) < 2:
            raise ScenarioError("a droop-controlled island needs at least 2 converters")
        ids = self.ids
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ScenarioError(f"duplicate converter id {dup!r}")
        for node, p in self.wind_injections:
            _require_finite(f"wind injection at {node}", p)

    @property
    def n(self) -> int:
        return len(self.converters)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.converters)

    @cached_property
    def p_ref(self) -> np.ndarray:
        return _readonly(c.p_ref for c in self.converters)

    @cached_property
    def p_max(self) -> np.ndarray:
        return _readonly(c.p_max for c in self.converters)

    @cached_property
    def x_min(self) -> np.ndarray:
        return _readonly(c.x_min for c in self.converters)

    @cached_property
    def ratings_mva(self) -> np.ndarray:
        return _readonly(c.rating_mva for c in self.converters)

    @property
    def wind_total(self) -> float:
        return float(sum(p for _, p in self.wind_injections))

    def converter_index(self, converter_id: str) -> int:
        for i, c in enumerate(self.converters):
            if c.id == converter_id:
                return i
        raise ScenarioError(f"unknown converter id {converter_id!r}")

    @classmethod
    def with_star_network(
        cls,
        base: SystemBase,
        converters: Sequence[Converter],
        wind_injections: Sequence[tuple[str, float]] = (),
    ) -> "GridScenario":
        """Scenario on the default topology: every converter and wind node
        tied to a central island bus with susceptance DEFAULT_STAR_SUSCEPTANCE."""
        leaves = [c.id for c in converters] + [node for node, _ in wind_injections]
        seen: list[str] = []
        for leaf in leaves:
            if leaf not in seen:
                seen.append(leaf)
        nodes = tuple(seen) + (ISLAND_BUS,)
        edges = tuple((leaf, ISLAND_BUS, DEFAULT_STAR_SUSCEPTANCE) for leaf in seen)
        net = NetworkGraph(nodes=nodes, edges=edges, grounded_node=ISLAND_BUS)
        return cls(
            base=base,
            converters=tuple(converters),
            wind_injections=tuple(wind_injections),
            network=net,
        )


@dataclass(frozen=True, slots=True)
class DroopAssignment:
    """A vector of inverse droop gains, one per converter.

    ``alpha`` (the stiffness) and the droop gains ``k_f`` are derived from x,
    so sum(x) == alpha and k_f * x == 1 hold by construction.
    """

    x: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(np.atleast_1d(self.x), dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ScenarioError("x must be a non-empty vector")
        smallest, largest = float(arr.min()), float(arr.max())  # a NaN propagates to both
        if not (smallest > 0 and largest < math.inf):
            raise ScenarioError("inverse droop gains must be positive and finite")
        if not 1.0 / smallest < math.inf:  # below about 5.6e-309
            raise ScenarioError(f"inverse droop gain x={smallest!r} is too small: "
                                "its droop gain 1/x overflows")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @property
    def alpha(self) -> float:
        return float(self.x.sum())

    @property
    def k_f(self) -> np.ndarray:
        return _readonly(1.0 / self.x)

    @property
    def n(self) -> int:
        return self.x.size

    @classmethod
    def equal(cls, alpha: float, n: int) -> "DroopAssignment":
        if alpha <= 0 or n < 1:
            raise ScenarioError("equal assignment needs alpha > 0 and n >= 1")
        return cls(np.full(n, alpha / n))


@dataclass
class ValidationReport:
    """Hard errors make a scenario unusable; warnings are advisory."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ScenarioError("; ".join(self.errors))


def validate_scenario(scenario: GridScenario) -> ValidationReport:
    """Check scenario invariants, returning findings instead of raising."""
    report = ValidationReport()
    known = set(scenario.network.nodes)
    for c in scenario.converters:
        if abs(c.p_ref) > c.p_max + 1e-12:
            report.errors.append(
                f"converter {c.id}: set-point exceeds limit "
                f"(|{c.p_ref:g}| > {c.p_max:g} pu)"
            )
        if c.id not in known:
            report.errors.append(f"converter {c.id} not present in network")
    for node, p in scenario.wind_injections:
        if node not in known:
            report.errors.append(f"wind node {node} not present in network")
        if p < 0:
            report.errors.append(f"wind injection at {node} must be non-negative")

    if not scenario.network.is_connected():
        report.errors.append("network is disconnected")

    imbalance = float(scenario.p_ref.sum()) - scenario.wind_total
    if abs(imbalance) > BALANCE_TOL:
        report.warnings.append(
            f"pre-fault power imbalance of {imbalance:.3e} pu "
            "(set-points do not match wind)"
        )
    return report
