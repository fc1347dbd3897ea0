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
from dataclasses import dataclass, replace
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
from .workload import Scenario

#: Assignment policies the simulator can drive.
POLICIES = ("psc", "sc-nearest")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``offline_batch_times`` lists the minutes at which the batch assigner
    runs (ignored by the sc-nearest policy, which is purely online); each
    must be finite and >= 0, and those past ``duration_min`` never come.
    ``response_delay_min`` is how long a dispatched worker takes to accept
    or reject; rejections therefore cost real time.  The batch assigner
    dispatches on a grid of ``grid_step_min`` steps that ends at
    ``duration_min``; online retries wait one step.  ``duration_min`` and
    the batch times are stored as floats.
    """

    duration_min: float
    offline_batch_times: tuple[float, ...] = ()
    grid_step_min: float = 15.0
    seed: int = 0
    policy: str = "psc"
    response_delay_min: float = 5.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if not (0 < self.duration_min < math.inf):
            raise ValueError(f"duration_min must be finite and > 0, got {self.duration_min}")
        TimeGrid(self.grid_step_min, self.duration_min)  # checks the step
        if not (0 <= self.response_delay_min < math.inf):
            raise ValueError(f"response_delay_min must be finite and >= 0, got {self.response_delay_min}")
        for t in self.offline_batch_times:
            if not (0 <= t < math.inf):
                raise ValueError(f"batch times must be finite and >= 0, got {t}")
        # Float minutes, so that int and float times give one log text.
        object.__setattr__(self, "duration_min", float(self.duration_min))
        object.__setattr__(self, "offline_batch_times", tuple(map(float, self.offline_batch_times)))


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


# Event ranks fix the processing order of same-time events; each is also
# the index of its handler in ``_Sim.run``.
_R_SUBMIT, _R_BATCH, _R_ONLINE, _R_DISPATCH, _R_DECISION, _R_COMPLETE, _R_EXPIRE = range(7)


@dataclass(slots=True)
class _Run:
    """One submitted task as the run stands.

    A task has at most one event pending in its online -> dispatch ->
    decision -> complete chain.  Expiry runs beside the chain and only moves
    a task to a terminal state, so a handler that finds the task in another
    state than the one it expects drops its event.
    """

    task: Task
    reward: float  # the offered reward, raises included
    state: TaskState = TaskState.QUEUED
    assignment: Assignment | None = None  # the held or dispatched offer
    rejected_by: frozenset[int] = frozenset()
    assigned: bool = False
    accepted: bool = False
    reason: OutcomeKind | None = None  # why the task is unassignable


class _Sim:
    def __init__(self, scenario: Scenario, config: SimConfig):
        self.config = config
        self.worker_ids = [w.id for w in scenario.workers]  # the order of final_workers
        self.engine = ScoreEngine(scenario.workers, scenario.categories, scenario.owners, scenario.velocity)
        self.rng = random.Random(config.seed)
        self.grid = TimeGrid(config.grid_step_min, config.duration_min)
        # sc-nearest is the same loop without batches: every task goes online.
        batch_times = () if config.policy == "sc-nearest" else config.offline_batch_times
        self.batch_times = tuple(sorted(t for t in batch_times if t <= config.duration_min))
        # In task-id order, so a run does not depend on the order the scenario lists its tasks in.
        tasks = sorted(scenario.tasks, key=lambda t: t.id)
        self.runs = {t.id: _Run(t, t.pto_reward) for t in tasks if t.submit_time <= config.duration_min}

        self.heap: list[tuple] = []
        self.seq = 0
        self.batch_queue: set[int] = set()
        self.log: list[LogRow] = []
        self.travel_completed: list[float] = []

    def push(self, t: float, rank: int, tid: int | None = None) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, rank, self.seq, tid))

    def _hold(self, r: _Run, a: Assignment) -> None:
        """Book the offer's worker and schedule its dispatch."""
        r.state, r.assignment = TaskState.PENDING, a
        self.engine.book(a.worker_id, *a.booking)
        self.push(a.dispatch_time, _R_DISPATCH, r.task.id)

    def _expire(self, r: _Run, t: float) -> None:
        if r.state is TaskState.PENDING:
            self.engine.release(r.assignment.worker_id, *r.assignment.booking)
        r.state = TaskState.EXPIRED
        self.log.append(LogRow(t, "expired", task_id=r.task.id))

    # -- event handlers ---------------------------------------------------

    def on_submit(self, t: float, tid: int) -> None:
        task = self.runs[tid].task
        self.log.append(LogRow(t, "submitted", task_id=tid))
        # A task waits for the batch assigner only when the work would still
        # fit after the wait: the next batch must leave room for the full
        # duration plus two grid steps of travel/slippage margin before the
        # deadline, and must not outlast the latest allowed start.
        margin = 2.0 * self.grid.step_min
        latest_useful = task.expiration - task.duration - margin
        if task.start_latest is not None:
            latest_useful = min(latest_useful, task.start_latest - margin)
        i = bisect.bisect_left(self.batch_times, task.submit_time)
        if i < len(self.batch_times) and self.batch_times[i] < latest_useful:
            self.batch_queue.add(tid)
        else:
            self.push(t, _R_ONLINE, tid)

    def on_batch(self, t: float, _tid: None) -> None:
        waiting = [self.runs[tid] for tid in sorted(self.batch_queue)]
        self.batch_queue.clear()
        ready = [r.task for r in waiting if r.state is TaskState.QUEUED and r.task.expiration > t]
        self.log.append(LogRow(t, "offline_batch"))
        if not ready:
            return
        assignments, unassigned = offline_assign(ready, self.engine, t, self.grid, self.config.seed)
        for a in assignments:
            self._hold(self.runs[a.task_id], a)
        for tid, _kind in unassigned:
            # One online attempt (reward raises allowed) before giving up.
            self.push(t, _R_ONLINE, tid)

    def on_online(self, t: float, tid: int) -> None:
        r = self.runs[tid]
        task = r.task
        if r.state is not TaskState.QUEUED or t >= task.expiration:
            return  # settled already, or the expire event settles it
        eff_task = task if r.reward == task.pto_reward else replace(task, pto_reward=r.reward)
        if self.config.policy == "psc":
            outcome = online_assign(
                eff_task, self.engine, t, already_raised=r.reward - task.pto_reward, exclude_workers=r.rejected_by
            )
        else:
            outcome = baseline_nearest(eff_task, self.engine, t, exclude_workers=r.rejected_by)
        if outcome.kind is OutcomeKind.ASSIGNED:
            r.reward = outcome.effective_reward
            self._hold(r, outcome.assignment)
            return
        if outcome.kind is OutcomeKind.NO_SUITABLE_WORKER:
            # Usually transient congestion (every worker busy right now), so
            # retry one grid step later as long as the deadline allows.
            retry_at = t + self.grid.step_min
            if retry_at < task.expiration and retry_at <= self.config.duration_min:
                self.push(retry_at, _R_ONLINE, tid)
                return
        r.state, r.reason = TaskState.UNASSIGNABLE, outcome.kind
        self.log.append(LogRow(t, "unassignable", task_id=tid))

    def on_dispatch(self, t: float, tid: int) -> None:
        # No state check: a dispatch time is before the task's expiration (a
        # batch grid time, or the online decision time), so this event comes
        # before its expiry, and nothing else moves a pending task on.
        r = self.runs[tid]
        a = r.assignment
        r.assigned = True
        self.engine.refresh_trust(a.worker_id, r.task.category_id, "assigned")
        self.log.append(LogRow(t, "dispatch", tid, a.worker_id, a.breakdown.total, r.reward))
        self.push(t + self.config.response_delay_min, _R_DECISION, tid)

    def on_decision(self, t: float, tid: int) -> None:
        r = self.runs[tid]
        if r.state is not TaskState.PENDING:
            return
        a = r.assignment
        if accept_decision(a, self.rng):
            r.state, r.accepted = TaskState.IN_PROGRESS, True
            self.engine.refresh_trust(a.worker_id, r.task.category_id, "accepted")
            self.log.append(LogRow(t, "accepted", task_id=tid, worker_id=a.worker_id))
            self.push(max(a.dispatch_time + a.ttc_min, t), _R_COMPLETE, tid)
        else:
            self.log.append(LogRow(t, "rejected", task_id=tid, worker_id=a.worker_id))
            self.engine.release(a.worker_id, *a.booking)
            r.rejected_by |= {a.worker_id}
            r.state = TaskState.QUEUED
            self.push(t, _R_ONLINE, tid)

    def on_complete(self, t: float, tid: int) -> None:
        # No state check: only this event moves a task on from in-progress.
        r = self.runs[tid]
        a = r.assignment
        self.engine.release(a.worker_id, *a.booking)
        self.engine.refresh_trust(a.worker_id, r.task.category_id, "completed")
        r.state = TaskState.COMPLETED
        self.travel_completed.append(a.travel_km)
        self.log.append(LogRow(t, "completed", task_id=tid, worker_id=a.worker_id, reward=r.reward))

    def on_expire(self, t: float, tid: int) -> None:
        r = self.runs[tid]
        if r.state in (TaskState.QUEUED, TaskState.PENDING):  # accepted work runs to completion
            self._expire(r, t)

    # -- main loop -------------------------------------------------------

    def run(self) -> SimReport:
        duration = self.config.duration_min
        for tid, r in self.runs.items():
            self.push(r.task.submit_time, _R_SUBMIT, tid)
            if r.task.expiration <= duration:
                self.push(r.task.expiration, _R_EXPIRE, tid)
        for bt in self.batch_times:
            self.push(bt, _R_BATCH)

        handlers = (
            self.on_submit,
            self.on_batch,
            self.on_online,
            self.on_dispatch,
            self.on_decision,
            self.on_complete,
            self.on_expire,
        )
        while self.heap:
            t, rank, _seq, tid = heapq.heappop(self.heap)
            if t > duration:
                break
            handlers[rank](t, tid)

        # Horizon sweep: nothing submitted may stay in a live state.
        for tid in sorted(self.runs):
            if self.runs[tid].state not in TERMINAL_STATES:
                self._expire(self.runs[tid], duration)

        runs = self.runs.values()
        # Completed work is released from the engine's table, so the report
        # lists each worker's scenario bookings plus those of its accepted tasks.
        engine = self.engine
        held = {w.id: [(float(s), float(e)) for s, e in w.bookings] for w in engine.workers}
        for r in runs:
            if r.accepted:
                held[r.assignment.worker_id].append(r.assignment.booking)
        final_workers = tuple(
            replace(w, trust=dict(w.trust), bookings=sorted(held[w.id]))
            for w in (engine.workers[engine.index_of[wid]] for wid in self.worker_ids)
        )
        states = [r.state for r in runs]
        completed = states.count(TaskState.COMPLETED)
        per_hour, fraction, mean_travel = performance_metrics(completed, len(runs), duration, self.travel_completed)
        counts = {
            "submitted": len(runs),
            "assigned": sum(r.assigned for r in runs),
            "accepted": sum(r.accepted for r in runs),
            "completed": completed,
            "expired": states.count(TaskState.EXPIRED),
            "unassignable": states.count(TaskState.UNASSIGNABLE),
        }
        return SimReport(
            counts=counts,
            sim_minutes=duration,
            performance_def1=per_hour,
            completion_fraction=fraction,
            mean_travel_km=mean_travel,
            log=tuple(self.log),
            final_workers=final_workers,
            task_state={tid: r.state for tid, r in self.runs.items()},
            unassigned_reason={tid: r.reason for tid, r in self.runs.items() if r.reason is not None},
        )


def run(scenario: Scenario, config: SimConfig) -> SimReport:
    """Simulate ``scenario`` under ``config`` and return the run report.

    The scenario is validated first and never mutated; deterministic for a
    fixed (scenario, config) pair including the seed.
    """
    scenario.validate()
    return _Sim(scenario, config).run()
