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
)
from .schedule import Segment, WeeklySchedule
from .scoring import (
    ScoreBreakdown,
    TaskExpiredError,
    TrustWeights,
    VelocityProfile,
    total_score,
)
from .simulate import POLICIES, SimConfig, SimReport, TaskState, run
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
    "WeeklySchedule",
    "Worker",
    "baseline_nearest",
    "builtin_scenarios",
    "generate",
    "load",
    "offline_assign",
    "online_assign",
    "run",
    "save",
    "total_score",
]
