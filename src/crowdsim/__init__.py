"""Availability-aware task assignment and simulation for mobile workforces.

Workers follow weekly whereabouts patterns and publish weekly acceptance
(status) levels; tasks carry deadlines, rewards, and priorities.  The
package scores (task, worker, time) triples, assigns tasks offline in
batches or online one-by-one, and replays whole scenarios in a seeded
discrete-event simulator.
"""

from .assign import (
    Assignment,
    AssignOutcome,
    OutcomeKind,
    ScoreEngine,
    TimeGrid,
    baseline_nearest,
    offline_assign,
    online_assign,
)
from .model import (
    Disc,
    Point,
    Rect,
    Task,
    TaskCategory,
    TaskOwner,
    TrustCounters,
    Worker,
    centroid,
    distance,
    validate_scenario,
)
from .schedule import (
    ALL_DAYS,
    WEEK_MINUTES,
    Segment,
    WeeklySchedule,
    availability_score,
)
from .scoring import (
    ScoreBreakdown,
    TaskExpiredError,
    TrustWeights,
    VelocityProfile,
    reward_score,
    task_priority_score,
    time_score,
    total_score,
    trustworthy_score,
)
from .simulate import POLICIES, SimConfig, SimReport, TaskState, accept_decision, run
from .workload import (
    GenParams,
    ParameterError,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    builtin_scenarios,
    generate,
    load,
    save,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_DAYS",
    "Assignment",
    "AssignOutcome",
    "Disc",
    "GenParams",
    "OutcomeKind",
    "POLICIES",
    "ParameterError",
    "Point",
    "Rect",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "ScoreBreakdown",
    "ScoreEngine",
    "Segment",
    "SimConfig",
    "SimReport",
    "Task",
    "TaskCategory",
    "TaskExpiredError",
    "TaskOwner",
    "TaskState",
    "TimeGrid",
    "TrustCounters",
    "TrustWeights",
    "VelocityProfile",
    "WEEK_MINUTES",
    "WeeklySchedule",
    "Worker",
    "accept_decision",
    "availability_score",
    "baseline_nearest",
    "builtin_scenarios",
    "centroid",
    "distance",
    "generate",
    "load",
    "offline_assign",
    "online_assign",
    "reward_score",
    "run",
    "save",
    "task_priority_score",
    "time_score",
    "total_score",
    "trustworthy_score",
    "validate_scenario",
]
