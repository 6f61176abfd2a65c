"""Planning toolkit for N-1-secure frequency droop control of zero-inertia
offshore island grids: gain optimization, contingency screening, H2
performance analysis, time-domain simulation, and the market capacity loop.
"""

from .core import (
    Converter,
    DroopAssignment,
    GridScenario,
    NetworkGraph,
    ScenarioError,
    SystemBase,
    from_per_unit,
    kron_reduction,
    to_per_unit,
    validate_scenario,
)
from .droop_opt import (
    DroopProblem,
    DroopSolution,
    MilpModel,
    SolverError,
    StiffnessError,
    build_exact_problem,
    build_milp,
    solve_exact_oracle,
    solve_problem,
)
from .dynamics import (
    ConverterOutage,
    DynamicModel,
    Trajectory,
    UnstableModelError,
    WindStep,
    assemble_model,
    h2_decomposition_check,
    h2_norm,
    reduce_grounded,
    simulate,
)
from .market import (
    HourScenario,
    PlanningRun,
    clear_market,
    duration_curves,
    plan,
    plan_hour,
)
from .security import (
    ContingencyReport,
    droop_response,
    post_fault_excess,
    post_fault_flows,
    post_fault_sharing,
    screen_all_contingencies,
    ssfd,
)

__version__ = "0.1.0"
