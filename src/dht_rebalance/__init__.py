"""DHT scale-out load rebalancing: ring model, feasibility bounds, fluid simulator."""

from .bounds import (
    ALL_SCENARIOS,
    BoundKind,
    BoundReport,
    ClusterParams,
    Scenario,
    StabilizationMode,
    WorkloadKind,
    bound_report,
    bound_table,
    min_feasible_n,
)
from .ring import (
    BalanceStats,
    LimitedTokenEqualPart,
    LimitedTokenRandomPart,
    ManyTokenEqualPart,
    RebalanceReport,
    RingState,
    balance_stats,
    build_ring,
    join,
    leave,
    lookup,
    lookup_many,
)
from .sim import (
    EventTable,
    SimConfig,
    SimEvent,
    SimOutcome,
    feasibility_threshold,
    run,
    validate_against_bounds,
)

__version__ = "0.1.0"
