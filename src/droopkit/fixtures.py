"""Shared synthetic fixtures: the six-link island and market-year data.

The island mirrors the offshore-hub setting: six 1850 MVA grid-forming
converters on one artificial island, star collection network, three
aggregated wind-farm nodes.  Market quantities (the wind profile here, the
bid fixtures' prices in ``droopkit.market``) are synthetic; results derived
from them are fixture-relative, not field data.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Converter, GridScenario, SystemBase
from .market import HourScenario

COUNTRIES = ("UK", "DE", "NL", "DK", "NO", "BE")
WIND_NODES = ("WF1", "WF2", "WF3")
WIND_SPLIT = (0.4, 0.35, 0.25)

RATING_MVA = 1850.0
S_BASE_MVA = 1850.0
F_NOM_HZ = 50.0

#: Flows (MW) of the critical loaded hour: the UK link heavily loaded at
#: 1740 MW, strong exports elsewhere, Norway lightly loaded.
HOUR3_FLOWS_MW = (1740.0, 950.0, 950.0, 950.0, 400.0, 950.0)


def island_base() -> SystemBase:
    return SystemBase(s_base_mva=S_BASE_MVA, f_nom_hz=F_NOM_HZ)


def island_scenario(p_ref_mw: tuple[float, ...] | list[float] | None = None) -> GridScenario:
    """Six-converter island on the default star network.

    Wind is the sum of the set-points, so the scenario is balanced.
    """
    base = island_base()
    flows = tuple(HOUR3_FLOWS_MW if p_ref_mw is None else p_ref_mw)
    if len(flows) != len(COUNTRIES):
        raise ValueError(f"expected {len(COUNTRIES)} set-points, got {len(flows)}")
    converters = tuple(
        Converter(id=cid, rating_mva=RATING_MVA, p_ref=mw / base.s_base_mva)
        for cid, mw in zip(COUNTRIES, flows)
    )
    total = sum(flows)
    wind = tuple(
        (node, share * total / base.s_base_mva) for node, share in zip(WIND_NODES, WIND_SPLIT)
    )
    return GridScenario.with_star_network(base, converters, wind)


def year_hours(n_hours: int = 8760, seed: int = 20300) -> list[HourScenario]:
    """Synthetic hourly market year with a seasonal, noisy wind profile.

    Every link offers 1700 MW each hour, bid on the "diurnal" fixture.
    """
    rng = np.random.default_rng(seed)
    offered = np.full(len(COUNTRIES), 1700.0)
    hours = []
    for h in range(n_hours):
        seasonal = 4200.0 + 2800.0 * math.sin(2.0 * math.pi * h / 8760.0 * 4.0 + 1.0)
        diurnal = 900.0 * math.sin(2.0 * math.pi * (h % 24) / 24.0)
        wind = float(np.clip(seasonal + diurnal + rng.uniform(-1400.0, 1400.0), 0.0, 9000.0))
        hours.append(HourScenario(hour=h, wind_mw=wind, link_ids=COUNTRIES,
                                  offered_mw=offered, bid_fixture="diurnal"))
    return hours
