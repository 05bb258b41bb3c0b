"""OmniBoost core: scheduling environment, MCTS and the scheduler facade."""

from .base import (
    InvalidRequest,
    ScheduleDecision,
    ScheduleRequest,
    ScheduleResponse,
    Scheduler,
    SLOTarget,
)
from .environment import LOSS_REWARD, WIN_BONUS, SchedulingEnv, SchedulingState
from .mcts import MCTSConfig, MCTSNode, MCTSResult, MonteCarloTreeSearch
from .objectives import (
    EnergyAwareObjective,
    SchedulingObjective,
    ThroughputObjective,
)
from .registry import (
    available_schedulers,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from .scheduler import OmniBoostScheduler
from .search_baselines import (
    ExhaustiveSearchScheduler,
    GreedyImprovementScheduler,
    RandomSearchScheduler,
    SimulatedAnnealingScheduler,
    enumerate_contiguous_rows,
)

__all__ = [
    "EnergyAwareObjective",
    "ExhaustiveSearchScheduler",
    "LOSS_REWARD",
    "MCTSConfig",
    "MCTSNode",
    "MCTSResult",
    "MonteCarloTreeSearch",
    "GreedyImprovementScheduler",
    "InvalidRequest",
    "OmniBoostScheduler",
    "RandomSearchScheduler",
    "SimulatedAnnealingScheduler",
    "available_schedulers",
    "enumerate_contiguous_rows",
    "get_scheduler",
    "register_scheduler",
    "ScheduleDecision",
    "ScheduleRequest",
    "ScheduleResponse",
    "Scheduler",
    "SLOTarget",
    "SchedulingEnv",
    "SchedulingObjective",
    "SchedulingState",
    "ThroughputObjective",
    "unregister_scheduler",
    "WIN_BONUS",
]
