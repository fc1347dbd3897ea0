"""Assignment score formulas.

A candidate (task, worker, time) triple is scored as the product of four
factors: deadline slack, mean declared availability, reward margin, and a
trust score weighted by the owner's priority.  These scalar functions are
the single source of truth for the formulas; the vectorised engine in
``assign`` mirrors them operation-for-operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Task, TaskCategory, TaskOwner, TrustCounters, Worker, distance
from .schedule import WeeklySchedule, availability_score

#: Owner priorities below this are clamped before being used as the trust
#: exponent, so a near-zero priority cannot blow the exponent up.
MIN_PRIORITY_EXPONENT_BASE = 0.05

#: Weights of the acceptance and completion ratios in the trust score;
#: completion counts for more.
ACCEPT_WEIGHT = 1.0
COMPLETION_WEIGHT = 2.0

#: Lowest travel-speed floor, km/h, so every trip between places in range
#: takes a finite time.
MIN_FLOOR_KMH = 0.1


class TaskExpiredError(ValueError):
    """Raised when a task is scored at or after its expiration time."""


@dataclass(frozen=True)
class VelocityProfile:
    """Global travel speed by time of week, km/h, floored at ``floor_kmh``."""

    schedule: WeeklySchedule
    floor_kmh: float

    def __post_init__(self) -> None:
        if not (self.floor_kmh >= MIN_FLOOR_KMH):
            raise ValueError(f"floor_kmh must be >= {MIN_FLOOR_KMH}, got {self.floor_kmh}")

    def speed_at(self, t: float) -> float:
        v = float(self.schedule.value_at(t))
        return v if v > self.floor_kmh else self.floor_kmh


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-factor scores for one (task, worker, time) candidate, with the reach they were scored on."""

    time_score: float
    availability: float
    reward: float
    trust_weighted: float
    total: float
    time_feasible: bool
    ttc_min: float
    travel_km: float


def time_score(task: Task, ttc: float, t: float) -> float:
    """Fraction of the remaining window left over after completing the task.

    1 for instant completion, 0 when the task would finish exactly at its
    expiration, negative when it cannot finish in time.
    """
    if t >= task.expiration:
        raise TaskExpiredError(f"task {task.id} expired at {task.expiration}, scored at t={t}")
    return ((task.expiration - ttc) - t) / (task.expiration - t)


def reward_score(task: Task, worker: Worker, category: TaskCategory) -> float:
    """Margin of the offered reward over the worker's demand, as a fraction.

    A worker with no demand entry for the category is assumed to demand the
    category's typical reward.
    """
    demand = worker.reward_demand.get(category.id, category.cat_reward)
    margin = task.pto_reward - demand
    if margin <= 0:
        return 0.0
    return margin / task.pto_reward


def trustworthy_score(counters: TrustCounters) -> float:
    """Weighted mix of acceptance and completion ratios in [0, 1].

    With no history at all the worker's registered initial score stands in
    for the whole score; with assignments but no acceptances yet, it stands
    in for the completion ratio only.
    """
    if counters.assigned <= 0:
        return counters.initial_score
    accept_ratio = counters.accepted / counters.assigned
    if counters.accepted > 0:
        completion_ratio = counters.completed / counters.accepted
    else:
        completion_ratio = counters.initial_score
    return (ACCEPT_WEIGHT * accept_ratio + COMPLETION_WEIGHT * completion_ratio) / (ACCEPT_WEIGHT + COMPLETION_WEIGHT)


def task_priority_score(task: Task, owner: TaskOwner, category: TaskCategory) -> float:
    """Queue priority in [0, 1]: owner x category x entered priority x reward ratio."""
    raw = (
        owner.pto_priority
        * category.cat_priority
        * task.entered_priority
        * (task.pto_reward / category.cat_reward)
    )
    return min(1.0, max(0.0, raw))


def reach(task: Task, d: float, speed: float, t: float) -> tuple[float, float]:
    """Effective start and time to complete, travelling ``d`` km at ``speed`` km/h from ``t``.

    Work cannot begin before ``start_earliest``; the worker idles after
    travelling.
    """
    travel = (d / speed) * 60.0
    eff_start = t + travel
    if task.start_earliest is not None and eff_start < task.start_earliest:
        eff_start = task.start_earliest
    return eff_start, (eff_start + task.duration) - t


def total_score(
    task: Task,
    worker: Worker,
    owner: TaskOwner,
    category: TaskCategory,
    t: float,
    velocity: VelocityProfile,
    trust: TrustCounters | None = None,
) -> ScoreBreakdown:
    """Full factor breakdown for assigning ``task`` to ``worker`` at time ``t``, with its time to complete and travel.

    The optional start window tightens the deadline factor: work cannot
    begin before ``start_earliest`` (the worker idles after travelling) and
    a begin time past ``start_latest`` makes the pair infeasible outright.
    ``trust``, a run's live counters, stands in for ``worker.trust_for(category.id)``.
    """
    if not math.isfinite(t):
        raise ValueError(f"task {task.id}: dispatch time must be finite, got {t}")
    if t >= task.expiration:
        raise TaskExpiredError(f"task {task.id} expired at {task.expiration}, scored at t={t}")
    d = distance(task.region, worker.pattern.value_at(t))
    eff_start, ttc = reach(task, d, velocity.speed_at(t), t)
    if task.start_latest is not None and eff_start > task.start_latest:
        ts = -1.0
    else:
        ts = time_score(task, ttc, t)
    avail = availability_score(worker.status, t, task.expiration)
    rw = reward_score(task, worker, category)
    raw_trust = trustworthy_score(worker.trust_for(category.id) if trust is None else trust)
    base = owner.pto_priority
    if base < MIN_PRIORITY_EXPONENT_BASE:
        base = MIN_PRIORITY_EXPONENT_BASE
    tw = raw_trust ** (1.0 / base)
    total = ((ts * avail) * rw) * tw
    return ScoreBreakdown(
        time_score=ts,
        availability=avail,
        reward=rw,
        trust_weighted=tw,
        total=total,
        time_feasible=ts > 0.0,
        ttc_min=ttc,
        travel_km=d,
    )
