"""Seeded discrete-event simulator driving the assigners against a scenario.

Tasks arrive at their submit times and are routed either to periodic
offline batches or straight to the online assigner (urgent tasks, batch
leftovers, and rejection retries).  Dispatched workers accept or reject
after a fixed response delay, with acceptance probability equal to the
offer's availability score; rejections release the booking and send the
task back through the online path excluding that worker.  Every submitted
task ends in exactly one terminal state: completed, expired, or
unassignable.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .assign import (
    Assignment,
    OutcomeKind,
    ScoreEngine,
    TimeGrid,
    baseline_nearest,
    offline_assign,
    online_assign,
)
from .model import Task, Worker
from .scoring import TrustWeights, VelocityProfile
from .workload import Scenario

#: Assignment policies the simulator can drive.
POLICIES = ("psc", "sc-nearest")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``offline_batch_times`` lists the minutes at which the batch assigner
    runs (ignored by the sc-nearest policy, which is purely online); each
    must be finite and >= 0, and those past ``duration_min`` never come.
    ``velocity`` overrides the scenario's travel-speed profile when set.
    ``response_delay_min`` is how long a dispatched worker takes to accept
    or reject; rejections therefore cost real time.
    """

    duration_min: float
    offline_batch_times: tuple[float, ...] = ()
    grid: TimeGrid = field(default_factory=TimeGrid)
    trust_weights: TrustWeights = field(default_factory=TrustWeights)
    velocity: VelocityProfile | None = None
    seed: int = 0
    policy: str = "psc"
    response_delay_min: float = 5.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if not (0 < self.duration_min < math.inf):
            raise ValueError(f"duration_min must be finite and > 0, got {self.duration_min}")
        if not (0 <= self.response_delay_min < math.inf):
            raise ValueError(f"response_delay_min must be finite and >= 0, got {self.response_delay_min}")
        for t in self.offline_batch_times:
            if not (0 <= t < math.inf):
                raise ValueError(f"batch times must be finite and >= 0, got {t}")


class TaskState(str, Enum):
    QUEUED = "queued"
    PENDING = "pending"  # dispatched, awaiting the worker's decision
    IN_PROGRESS = "in-progress"
    COMPLETED = "completed"
    EXPIRED = "expired"
    UNASSIGNABLE = "unassignable"

TERMINAL_STATES = frozenset({TaskState.COMPLETED, TaskState.EXPIRED, TaskState.UNASSIGNABLE})


@dataclass(frozen=True)
class LogRow:
    """One event-log line; optional fields stay None when not applicable."""

    time_min: float
    event_kind: str
    task_id: int | None = None
    worker_id: int | None = None
    score_total: float | None = None
    reward: float | None = None


@dataclass(frozen=True)
class SimReport:
    counts: dict[str, int]
    sim_minutes: float
    performance_def1: float
    completion_fraction: float
    mean_travel_km: float
    log: tuple[LogRow, ...]
    final_workers: tuple[Worker, ...]
    task_state: dict[int, TaskState]
    unassigned_reason: dict[int, OutcomeKind]


def accept_decision(assignment: Assignment, rng: random.Random) -> bool:
    """Sample whether the dispatched worker takes the job.

    The acceptance probability is the offer's availability score — the
    worker's expected free fraction between dispatch and the deadline —
    provided the offer pays anything and can finish in time; otherwise it
    is zero.  One uniform draw is consumed on every call so the random
    stream advances the same way regardless of the outcome.
    """
    b = assignment.breakdown
    p = b.availability if (b.reward > 0.0 and b.time_score > 0.0) else 0.0
    p = min(max(p, 0.0), 1.0)
    return rng.random() < p


def performance_metrics(
    completed: int, submitted: int, sim_minutes: float, travel_km: list[float]
) -> tuple[float, float, float]:
    """(tasks per hour, completed fraction, mean dispatch distance)."""
    per_hour = completed / (sim_minutes / 60.0)
    fraction = completed / submitted if submitted else 0.0
    mean_travel = float(np.mean(travel_km)) if travel_km else 0.0
    return per_hour, fraction, mean_travel


# Event ranks fix the processing order of same-time events.
_R_SUBMIT, _R_BATCH, _R_ONLINE, _R_DISPATCH, _R_DECISION, _R_COMPLETE, _R_EXPIRE = range(7)


class _Sim:
    def __init__(self, scenario: Scenario, config: SimConfig):
        self.config = config
        self.tasks: dict[int, Task] = {t.id: t for t in scenario.tasks}
        self.owners = {o.id: o for o in scenario.owners}
        self.categories = {c.id: c for c in scenario.categories}
        self.worker_ids = [w.id for w in scenario.workers]  # the order of final_workers
        velocity = config.velocity if config.velocity is not None else scenario.velocity
        self.engine = ScoreEngine(scenario.workers, scenario.categories, velocity, config.trust_weights)
        self.rng = random.Random(config.seed)
        self.batch_times = tuple(sorted(t for t in config.offline_batch_times if t <= config.duration_min))

        self.heap: list[tuple] = []
        self.seq = 0
        self.state: dict[int, TaskState] = {}
        self.epoch: dict[int, int] = {}
        self.pending: dict[int, Assignment] = {}  # dispatched, not yet decided/finished
        self.rejected_by: dict[int, set[int]] = {}
        self.effective_reward: dict[int, float] = {}
        self.batch_queue: set[int] = set()
        self.unassigned_reason: dict[int, OutcomeKind] = {}
        self.log: list[LogRow] = []
        self.assigned_ever: set[int] = set()
        self.accepted_ever: set[int] = set()
        self.travel_completed: list[float] = []

    # -- plumbing -------------------------------------------------------

    def push(self, t: float, rank: int, kind: str, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, rank, self.seq, kind, args))

    def emit(self, row: LogRow) -> None:
        self.log.append(row)

    def _book(self, assignment: Assignment) -> None:
        self.engine.book(assignment.worker_id, *assignment.booking)

    def _unbook(self, assignment: Assignment) -> None:
        self.engine.release(assignment.worker_id, *assignment.booking)

    def _next_batch(self, submit: float, before: float) -> float | None:
        i = bisect.bisect_left(self.batch_times, submit)
        if i < len(self.batch_times) and self.batch_times[i] < before:
            return self.batch_times[i]
        return None

    # -- event handlers ---------------------------------------------------

    def on_submit(self, t: float, task: Task) -> None:
        self.state[task.id] = TaskState.QUEUED
        self.epoch[task.id] = 0
        self.rejected_by[task.id] = set()
        self.effective_reward[task.id] = task.pto_reward
        self.emit(LogRow(t, "submitted", task_id=task.id))
        if self.config.policy == "sc-nearest":
            self.push(t, _R_ONLINE, "online", task.id, 0)
            return
        # A task waits for the batch assigner only when the work would still
        # fit after the wait: the next batch must leave room for the full
        # duration plus two grid steps of travel/slippage margin before the
        # deadline, and must not outlast the latest allowed start.
        margin = 2.0 * self.config.grid.step_min
        latest_useful = task.expiration - task.duration - margin
        if task.start_latest is not None:
            latest_useful = min(latest_useful, task.start_latest - margin)
        batch_at = self._next_batch(task.submit_time, latest_useful)
        if batch_at is None:
            self.push(t, _R_ONLINE, "online", task.id, 0)
        else:
            self.batch_queue.add(task.id)

    def on_batch(self, t: float) -> None:
        ready = [
            self.tasks[tid]
            for tid in sorted(self.batch_queue)
            if self.state[tid] is TaskState.QUEUED and self.tasks[tid].expiration > t
        ]
        self.batch_queue.clear()
        self.emit(LogRow(t, "offline_batch"))
        if not ready:
            return
        assignments, unassigned = offline_assign(
            ready,
            self.engine,
            self.owners,
            self.categories,
            now=t,
            grid=self.config.grid,
            rng_seed=self.config.seed,
        )
        for a in assignments:
            self.state[a.task_id] = TaskState.PENDING
            self.pending[a.task_id] = a
            self._book(a)
            self.push(a.dispatch_time, _R_DISPATCH, "dispatch", a.task_id, self.epoch[a.task_id])
        for tid, _kind in unassigned:
            # One online attempt (reward raises allowed) before giving up.
            self.push(t, _R_ONLINE, "online", tid, self.epoch[tid])

    def on_online(self, t: float, tid: int, epoch: int) -> None:
        task = self.tasks[tid]
        if self.state[tid] is not TaskState.QUEUED or self.epoch[tid] != epoch:
            return
        if t >= task.expiration:
            return  # the expire event settles it
        owner = self.owners[task.owner_id]
        category = self.categories[task.category_id]
        reward_now = self.effective_reward[tid]
        eff_task = task if reward_now == task.pto_reward else replace(task, pto_reward=reward_now)
        if self.config.policy == "sc-nearest":
            outcome = baseline_nearest(eff_task, self.engine, t, owner, category, exclude_workers=self.rejected_by[tid])
        else:
            outcome = online_assign(
                eff_task,
                self.engine,
                owner,
                category,
                t,
                already_raised=reward_now - task.pto_reward,
                exclude_workers=self.rejected_by[tid],
            )
        if outcome.kind is OutcomeKind.ASSIGNED:
            a = outcome.assignment
            assert a is not None
            self.effective_reward[tid] = outcome.effective_reward
            self.state[tid] = TaskState.PENDING
            self.pending[tid] = a
            self._book(a)
            self.push(t, _R_DISPATCH, "dispatch", tid, self.epoch[tid])
            return
        if outcome.kind is OutcomeKind.NO_SUITABLE_WORKER:
            # Usually transient congestion (everyone booked right now), so
            # retry one grid step later as long as the deadline allows.
            retry_at = t + self.config.grid.step_min
            if retry_at < task.expiration and retry_at <= self.config.duration_min:
                self.push(retry_at, _R_ONLINE, "online", tid, epoch)
                return
        self.state[tid] = TaskState.UNASSIGNABLE
        self.unassigned_reason[tid] = outcome.kind
        self.emit(LogRow(t, "unassignable", task_id=tid))

    def on_dispatch(self, t: float, tid: int, epoch: int) -> None:
        if self.state[tid] is not TaskState.PENDING or self.epoch[tid] != epoch:
            return
        a = self.pending[tid]
        self.assigned_ever.add(tid)
        self.engine.refresh_trust(a.worker_id, self.tasks[tid].category_id, "assigned")
        self.emit(
            LogRow(
                t,
                "dispatch",
                task_id=tid,
                worker_id=a.worker_id,
                score_total=a.breakdown.total,
                reward=self.effective_reward[tid],
            )
        )
        self.push(t + self.config.response_delay_min, _R_DECISION, "decision", tid, epoch)

    def on_decision(self, t: float, tid: int, epoch: int) -> None:
        if self.state[tid] is not TaskState.PENDING or self.epoch[tid] != epoch:
            return
        a = self.pending[tid]
        done_at = max(a.dispatch_time + a.ttc_min, t)
        if accept_decision(a, self.rng):
            self.accepted_ever.add(tid)
            self.engine.refresh_trust(a.worker_id, self.tasks[tid].category_id, "accepted")
            self.state[tid] = TaskState.IN_PROGRESS
            self.emit(LogRow(t, "accepted", task_id=tid, worker_id=a.worker_id))
            self.push(done_at, _R_COMPLETE, "complete", tid, epoch)
        else:
            self.emit(LogRow(t, "rejected", task_id=tid, worker_id=a.worker_id))
            self._unbook(a)
            self.rejected_by[tid].add(a.worker_id)
            del self.pending[tid]
            self.state[tid] = TaskState.QUEUED
            self.epoch[tid] += 1
            self.push(t, _R_ONLINE, "online", tid, self.epoch[tid])

    def on_complete(self, t: float, tid: int, epoch: int) -> None:
        if self.state[tid] is not TaskState.IN_PROGRESS or self.epoch[tid] != epoch:
            return
        a = self.pending.pop(tid)
        self.engine.refresh_trust(a.worker_id, self.tasks[tid].category_id, "completed")
        self.state[tid] = TaskState.COMPLETED
        self.travel_completed.append(a.travel_km)
        self.emit(
            LogRow(t, "completed", task_id=tid, worker_id=a.worker_id, reward=self.effective_reward[tid])
        )

    def on_expire(self, t: float, tid: int) -> None:
        st = self.state[tid]
        if st in TERMINAL_STATES or st is TaskState.IN_PROGRESS:
            return  # accepted work runs to completion
        if st is TaskState.PENDING:
            self._unbook(self.pending.pop(tid))
        self.batch_queue.discard(tid)
        self.epoch[tid] += 1
        self.state[tid] = TaskState.EXPIRED
        self.emit(LogRow(t, "expired", task_id=tid))

    # -- main loop -------------------------------------------------------

    def run(self) -> SimReport:
        duration = self.config.duration_min
        submitted = [t for t in self.tasks.values() if t.submit_time <= duration]
        for task in submitted:
            self.push(task.submit_time, _R_SUBMIT, "submit", task.id)
            if task.expiration <= duration:
                self.push(task.expiration, _R_EXPIRE, "expire", task.id)
        for bt in self.batch_times:
            if self.config.policy != "sc-nearest":
                self.push(bt, _R_BATCH, "batch", None)

        handlers = {
            "submit": lambda t, tid: self.on_submit(t, self.tasks[tid]),
            "batch": lambda t, _none: self.on_batch(t),
            "online": self.on_online,
            "dispatch": self.on_dispatch,
            "decision": self.on_decision,
            "complete": self.on_complete,
            "expire": self.on_expire,
        }
        while self.heap:
            t, _rank, _seq, kind, args = heapq.heappop(self.heap)
            if t > duration:
                break
            handlers[kind](t, *args)

        # Horizon sweep: nothing submitted may stay in a live state.
        for task in sorted(submitted, key=lambda x: x.id):
            if self.state.get(task.id) not in TERMINAL_STATES:
                if self.state.get(task.id) is TaskState.PENDING:
                    self._unbook(self.pending.pop(task.id))
                self.state[task.id] = TaskState.EXPIRED
                self.emit(LogRow(duration, "expired", task_id=task.id))

        completed = sum(1 for s in self.state.values() if s is TaskState.COMPLETED)
        per_hour, fraction, mean_travel = performance_metrics(
            completed, len(submitted), duration, self.travel_completed
        )
        counts = {
            "submitted": len(submitted),
            "assigned": len(self.assigned_ever),
            "accepted": len(self.accepted_ever),
            "completed": completed,
            "expired": sum(1 for s in self.state.values() if s is TaskState.EXPIRED),
            "unassignable": sum(1 for s in self.state.values() if s is TaskState.UNASSIGNABLE),
        }
        return SimReport(
            counts=counts,
            sim_minutes=duration,
            performance_def1=per_hour,
            completion_fraction=fraction,
            mean_travel_km=mean_travel,
            log=tuple(self.log),
            final_workers=tuple(self.engine.live_worker(wid) for wid in self.worker_ids),
            task_state=dict(self.state),
            unassigned_reason=dict(self.unassigned_reason),
        )


def run(scenario: Scenario, config: SimConfig) -> SimReport:
    """Simulate ``scenario`` under ``config`` and return the run report.

    The scenario is validated first and never mutated; deterministic for a
    fixed (scenario, config) pair including the seed.
    """
    scenario.validate()
    return _Sim(scenario, config).run()
