"""Task-to-worker assigners: offline batch, online greedy, and a nearest baseline.

The scalar formulas in ``scoring`` stay the readable reference; this module
contains a vectorised mirror of them (``ScoreEngine``) that evaluates whole
worker sets and dispatch-time grids at once.  The mirror reproduces the
scalar arithmetic operation-for-operation so both paths agree bit-for-bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .model import Task, TaskCategory, TaskOwner, TrustCounters, Worker, centroid
from .schedule import WEEK_MINUTES, WeeklySchedule
from .scoring import (
    MIN_PRIORITY_EXPONENT_BASE,
    ScoreBreakdown,
    TaskExpiredError,
    VelocityProfile,
    task_priority_score,
    total_score,
    trustworthy_score,
)

#: Candidate pairs materialised per task at first; each rebuild doubles the count.
_CANDIDATE_BLOCK = 64
#: Worker rows scored in a task's first block of the threshold search; each later block doubles.
_ROW_BLOCK = 16


@dataclass(frozen=True)
class TimeGrid:
    """Dispatch-time lattice used by the batch assigner."""

    step_min: float = 15.0
    horizon_min: float = WEEK_MINUTES

    def __post_init__(self) -> None:
        if not (0 < self.step_min < math.inf):
            raise ValueError(f"grid step must be finite and > 0, got {self.step_min}")
        if not (0 <= self.horizon_min < math.inf):
            raise ValueError(f"grid horizon must be finite and >= 0, got {self.horizon_min}")

    def times(self, now: float, before: float) -> np.ndarray:
        """Grid points ``now + k*step`` with ``t < before`` and ``t <= horizon``."""
        count_before = math.ceil((before - now) / self.step_min)
        if self.horizon_min < now:
            return np.empty(0, dtype=float)
        count_horizon = math.floor((self.horizon_min - now) / self.step_min) + 1
        n = max(0, min(count_before, count_horizon))
        return now + self.step_min * np.arange(n, dtype=float)


class OutcomeKind(str, Enum):
    ASSIGNED = "assigned"
    DEADLINE_INFEASIBLE = "deadline-infeasible"
    REWARD_INSUFFICIENT = "reward-insufficient"
    NO_SUITABLE_WORKER = "no-suitable-worker"


@dataclass(frozen=True)
class Assignment:
    """A concrete (task, worker, dispatch time) decision with its scores."""

    task_id: int
    worker_id: int
    dispatch_time: float
    breakdown: ScoreBreakdown
    ttc_min: float
    travel_km: float

    @property
    def booking(self) -> tuple[float, float]:
        """Half-open interval the worker is considered occupied for."""
        return (self.dispatch_time, self.dispatch_time + self.ttc_min)


@dataclass(frozen=True)
class AssignOutcome:
    """Result of one assignment attempt; exactly one variant applies."""

    kind: OutcomeKind
    assignment: Assignment | None = None
    effective_reward: float | None = None

    @classmethod
    def assigned_to(cls, assignment: Assignment, effective_reward: float) -> "AssignOutcome":
        return cls(OutcomeKind.ASSIGNED, assignment=assignment, effective_reward=effective_reward)

    @classmethod
    def failure(cls, kind: OutcomeKind) -> "AssignOutcome":
        return cls(kind)


# ---------------------------------------------------------------------------
# vectorised scoring engine


@dataclass
class _Scores:
    """Score factors for one task over workers (1-D), worker rows x times (2-D), or candidate pairs.

    ``rw`` and ``tw`` are per worker row, or per pair for candidate pairs.
    """

    total: np.ndarray
    ts: np.ndarray
    avail: np.ndarray
    ttc: np.ndarray
    travel_km: np.ndarray
    rw: np.ndarray
    tw: np.ndarray


@dataclass
class _TaskFactors:
    """The per-worker parts of one task's score that do not depend on the dispatch time."""

    rw: np.ndarray
    tw: np.ndarray
    cum_exp: np.ndarray  # (workers,): status integral from 0 to the task's expiration


@dataclass
class GridContext:
    """Worker positions/cumulative status precomputed at shared grid times."""

    times: np.ndarray
    x: np.ndarray  # (workers, times)
    y: np.ndarray
    cum_status: np.ndarray  # (workers, times), a view of a time-major array
    speed: np.ndarray  # (times,)


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Float arrays end to end; none gives an empty array."""
    return np.concatenate([np.empty(0), *arrays])


class _PieceTable:
    """The piece ends of many weekly schedules, one row each, for one exact lookup.

    Every inner piece end (all but a schedule's last, which is the week's
    end) is keyed ``row * (len(cuts) + 1) + rank``, where ``rank`` is its
    place among ``cuts``, the sorted unique inner ends of all rows.  A week
    minute is keyed the same way by its own rank, so one ``searchsorted``
    over integer keys counts the row's ends at or before it.  Float keys
    such as ``end + row * WEEK_MINUTES`` would round near piece ends.
    Leaving out the last end puts minutes that round up to the week's end
    in the last piece, the clamp ``WeeklySchedule`` applies.
    """

    def __init__(self, schedules: Sequence[WeeklySchedule]):
        inner = [s.piece_ends[:-1] for s in schedules]
        ends = _concat(inner)
        self._cuts = np.unique(ends)
        self._width = len(self._cuts) + 1
        rows = np.repeat(np.arange(len(inner)), [len(e) for e in inner])
        self._keys = rows * self._width + np.searchsorted(self._cuts, ends)

    def index(self, rows: np.ndarray, tm: np.ndarray) -> np.ndarray:
        """Index into the rows' concatenated pieces of the piece holding week minute ``tm``.

        ``rows`` and ``tm`` broadcast against each other.
        """
        keys = rows * self._width + np.searchsorted(self._cuts, tm, side="right")
        return np.searchsorted(self._keys, keys) + rows


class ScoreEngine:
    """Vectorised evaluation of the total score for a fixed worker population.

    The engine is the registry a run assigns against: its workers, the task
    categories and owners by id, and the travel speed.  Each task's owner and
    category are looked up from the task's own ids.  Workers are kept sorted
    by id, so "first index" tie-breaks equal "lowest worker id".  The engine
    owns the run state: it copies each worker's trust counters and bookings
    once and never changes the ``Worker`` records.  The simulator advances a
    counter through :meth:`refresh_trust` and changes bookings through
    :meth:`book` and :meth:`release`; :meth:`live_worker` reports a worker as
    the run stands.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        categories: Sequence[TaskCategory],
        owners: Sequence[TaskOwner],
        velocity: VelocityProfile,
    ):
        self.workers: list[Worker] = sorted(workers, key=lambda w: w.id)
        self.index_of: dict[int, int] = {w.id: i for i, w in enumerate(self.workers)}
        self.categories: dict[int, TaskCategory] = {c.id: c for c in categories}
        self.owners: dict[int, TaskOwner] = {o.id: o for o in owners}
        self.velocity = velocity
        n = len(self.workers)
        self._rows = np.arange(n)

        # Piece values, concatenated in the row order of each piece table.
        patterns = [w.pattern for w in self.workers]
        self._pattern = _PieceTable(patterns)
        cents = [centroid(v) for p in patterns for v in p.piece_values]
        self._cx = np.array([c.x for c in cents], dtype=float)
        self._cy = np.array([c.y for c in cents], dtype=float)
        for w in self.workers:
            if w.status.piece_prefix is None:
                raise TypeError(f"worker {w.id} status schedule is not numeric")
        statuses = [w.status for w in self.workers]
        self._status = _PieceTable(statuses)
        self._st_start = _concat([s.piece_starts for s in statuses])
        self._st_value = np.array([float(v) for s in statuses for v in s.piece_values], dtype=float)
        self._st_prefix = _concat([s.piece_prefix[:-1] for s in statuses])
        self._st_week = np.array([s.week_integral for s in statuses], dtype=float)
        self._speed_table = _PieceTable([velocity.schedule])
        self._speed = np.maximum([float(v) for v in velocity.schedule.piece_values], velocity.floor_kmh)

        self._demand: dict[int, np.ndarray] = {
            c.id: np.array([w.reward_demand.get(c.id, c.cat_reward) for w in self.workers])
            for c in self.categories.values()
        }
        # Live trust counters per worker, and the raw trust per category as
        # Python floats (for bit-exact scalar powers) with its powered
        # vectors cached per category and exponent.
        self._trust: list[dict[int, TrustCounters]] = [dict(w.trust) for w in self.workers]
        self._trust_raw: dict[int, list[float]] = {
            c.id: [trustworthy_score(w.trust_for(c.id)) for w in self.workers]
            for c in self.categories.values()
        }
        self._trust_pow: dict[int, dict[float, np.ndarray]] = {c: {} for c in self.categories}

        # Live bookings, one column per worker: the first ``_bk_count[i]``
        # rows of column i hold its half-open [start, end) bookings in no
        # particular order, and the (+inf, -inf) padding overlaps nothing.
        # Worker-major columns make the per-worker reduction in
        # :meth:`booked` run along contiguous rows.
        depth = max([len(w.bookings) for w in self.workers] + [1])
        self._bk_start = np.full((depth, n), np.inf)
        self._bk_end = np.full((depth, n), -np.inf)
        self._bk_count = [0] * n
        for w in self.workers:
            for start, end in w.bookings:
                self.book(w.id, start, end)

    # -- live state ----------------------------------------------------

    def book(self, worker_id: int, start: float, end: float) -> None:
        """Book a worker for [start, end); the table doubles in depth when a column fills."""
        i = self.index_of[worker_id]
        j = self._bk_count[i]
        if j == len(self._bk_start):
            self._bk_start = np.vstack((self._bk_start, np.full_like(self._bk_start, np.inf)))
            self._bk_end = np.vstack((self._bk_end, np.full_like(self._bk_end, -np.inf)))
        self._bk_start[j, i] = start
        self._bk_end[j, i] = end
        self._bk_count[i] = j + 1

    def release(self, worker_id: int, start: float, end: float) -> None:
        """Drop one booking of [start, end) that :meth:`book` placed."""
        i = self.index_of[worker_id]
        last = self._bk_count[i] - 1
        starts, ends = self._bk_start[:, i], self._bk_end[:, i]
        hits = np.flatnonzero((starts[: last + 1] == start) & (ends[: last + 1] == end))
        if not len(hits):
            raise ValueError(f"worker {worker_id} holds no booking [{start}, {end})")
        j = hits[0]
        starts[j], ends[j] = starts[last], ends[last]
        starts[last], ends[last] = np.inf, -np.inf
        self._bk_count[i] = last

    def bookings_of(self, worker_id: int) -> list[tuple[float, float]]:
        """A worker's live bookings as (start, end) tuples in ascending order."""
        i = self.index_of[worker_id]
        k = self._bk_count[i]
        return sorted(zip(self._bk_start[:k, i].tolist(), self._bk_end[:k, i].tolist()))

    def booked(self, start, end, rows=slice(None)) -> np.ndarray:
        """Whether [start, end) overlaps a live booking, for each worker index in ``rows``.

        ``start`` and ``end`` are scalars or arrays aligned with ``rows``.
        """
        return ((self._bk_start[:, rows] < end) & (self._bk_end[:, rows] > start)).any(axis=0)

    def live_worker(self, worker_id: int) -> Worker:
        """The worker with this run's trust counters and bookings."""
        i = self.index_of[worker_id]
        return replace(self.workers[i], trust=dict(self._trust[i]), bookings=self.bookings_of(worker_id))

    def refresh_trust(self, worker_id: int, category_id: int, event: str) -> None:
        """Advance one trust counter on ``event`` and update the cached trust of that category."""
        i = self.index_of[worker_id]
        c = self._trust[i].get(category_id) or TrustCounters()
        if event == "assigned":
            c = replace(c, assigned=c.assigned + 1)
        elif event == "accepted":
            if c.accepted + 1 > c.assigned:
                raise RuntimeError(
                    f"internal fault: worker {worker_id} accepted more category-{category_id} "
                    f"tasks than were assigned"
                )
            c = replace(c, accepted=c.accepted + 1)
        elif event == "completed":
            if c.completed + 1 > c.accepted:
                raise RuntimeError(
                    f"internal fault: worker {worker_id} completed a category-{category_id} "
                    f"task that was never accepted"
                )
            c = replace(c, completed=c.completed + 1)
        else:
            raise ValueError(f"unknown trust event {event!r}")
        self._trust[i][category_id] = c
        raw = trustworthy_score(c)
        self._trust_raw[category_id][i] = raw
        for exponent, vec in self._trust_pow[category_id].items():
            vec[i] = raw**exponent

    def _trust_vector(self, task: Task) -> np.ndarray:
        base = self.owners[task.owner_id].pto_priority
        if base < MIN_PRIORITY_EXPONENT_BASE:
            base = MIN_PRIORITY_EXPONENT_BASE
        exponent = 1.0 / base
        cached = self._trust_pow[task.category_id]
        vec = cached.get(exponent)
        if vec is None:
            vec = cached[exponent] = np.array([r**exponent for r in self._trust_raw[task.category_id]])
        return vec

    # -- time lookups ----------------------------------------------------

    def _positions(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every worker's expected centroid at each time, shaped (workers, times)."""
        p = self._pattern.index(self._rows[:, None], np.mod(times, WEEK_MINUTES))
        return self._cx[p], self._cy[p]

    def _cumulative(self, times: np.ndarray) -> np.ndarray:
        """Every worker's status integral from 0 to each time, shaped (workers, times).

        The array is laid out time-major, so one time's column is contiguous.
        """
        nw = np.floor(times / WEEK_MINUTES)[:, None]
        tm = times[:, None] - nw * WEEK_MINUTES
        p = self._status.index(self._rows, tm)
        return (nw * self._st_week + self._st_prefix[p] + self._st_value[p] * (tm - self._st_start[p])).T

    def _speeds(self, times: np.ndarray) -> np.ndarray:
        """The floored travel speed at each time, shaped (times,)."""
        return self._speed[self._speed_table.index(0, np.mod(times, WEEK_MINUTES))]

    def grid_context(self, times: np.ndarray) -> GridContext:
        """Precompute positions, cumulative status and speed at shared batch grid times."""
        return self._context(times)

    def _context(self, times: np.ndarray) -> GridContext:
        # score_at builds its one-time context here, so grid_context is called for batch grids only.
        x, y = self._positions(times)
        return GridContext(times=times, x=x, y=y, cum_status=self._cumulative(times), speed=self._speeds(times))

    # -- scoring ----------------------------------------------------------

    def _reach(self, task: Task, times: np.ndarray, x: np.ndarray, y: np.ndarray, speed: np.ndarray):
        """Distance, effective start and time to complete from positions at dispatch times.

        Steps write in place into this call's own arrays; the operations and
        their order are those of the scalar formulas.
        """
        c = centroid(task.region)
        dist = np.subtract(c.x, x)
        dy = np.subtract(c.y, y)
        np.multiply(dist, dist, out=dist)
        np.multiply(dy, dy, out=dy)
        np.sqrt(np.add(dist, dy, out=dist), out=dist)
        eff = np.divide(dist, speed, out=dy)  # travel minutes, then the effective start
        np.multiply(eff, 60.0, out=eff)
        np.add(times, eff, out=eff)
        if task.start_earliest is not None:
            np.maximum(eff, task.start_earliest, out=eff)
        ttc = np.add(eff, task.duration)
        return dist, eff, np.subtract(ttc, times, out=ttc)

    def _factors(self, task: Task, cum_exp: np.ndarray | None = None) -> _TaskFactors:
        """The task's time-independent factors; ``cum_exp`` may come from one lookup for many tasks."""
        margin = task.pto_reward - self._demand[task.category_id]
        return _TaskFactors(
            rw=np.where(margin > 0, margin / task.pto_reward, 0.0),
            tw=self._trust_vector(task),
            cum_exp=self._cumulative(np.array([task.expiration]))[:, 0] if cum_exp is None else cum_exp,
        )

    def _score(self, task: Task, f: _TaskFactors, ctx: GridContext, k: int, rows=slice(None)) -> _Scores:
        """The total score and its factors over the worker ``rows`` and the first ``k`` times of ``ctx``."""
        times = ctx.times[:k]
        dist, eff, ttc = self._reach(task, times, ctx.x[rows, :k], ctx.y[rows, :k], ctx.speed[:k])
        exp = task.expiration
        left = exp - times
        ts = np.subtract(exp, ttc)
        np.subtract(ts, times, out=ts)
        np.divide(ts, left, out=ts)
        if task.start_latest is not None:
            ts[eff > task.start_latest] = -1.0
        avail = np.subtract(f.cum_exp[rows, None], ctx.cum_status[rows, :k], out=eff)
        np.divide(avail, left, out=avail)
        rw, tw = f.rw[rows], f.tw[rows]
        total = np.multiply(ts, avail)
        np.multiply(total, rw[:, None], out=total)
        np.multiply(total, tw[:, None], out=total)
        return _Scores(total=total, ts=ts, avail=avail, ttc=ttc, travel_km=dist, rw=rw, tw=tw)

    def score_at(self, task: Task, t: float) -> _Scores:
        """Score every worker for ``task`` dispatched at the single time ``t``."""
        s = self._score(task, self._factors(task), self._context(np.array([t])), 1)
        return replace(
            s, total=s.total[:, 0], ts=s.ts[:, 0], avail=s.avail[:, 0], ttc=s.ttc[:, 0], travel_km=s.travel_km[:, 0]
        )

    def score_grid(
        self, task: Task, ctx: GridContext, k: int, rows=slice(None), factors: _TaskFactors | None = None
    ) -> _Scores:
        """Score the worker ``rows`` (every worker by default) for ``task`` over the first ``k`` grid times.

        ``factors`` from :meth:`_factors` may be shared between calls for one task.
        """
        f = self._factors(task) if factors is None else factors
        return self._score(task, f, ctx, k, rows)

    def row_bounds(self, task: Task, ctx: GridContext, k: int, factors: _TaskFactors | None = None) -> np.ndarray:
        """Per worker, a bound at or above every positive total :meth:`score_grid` gives over the first ``k`` times.

        The bound takes no distance.  Travel is never negative, so the
        kernel's effective start is at least ``max(t, start_earliest)``;
        from that lower start the time score is computed with the kernel's
        own operations, and as IEEE rounding is monotone it is at least the
        kernel's in every cell, and so are its products with the
        non-negative availability, reward and trust.  A positive total needs
        a positive time score, so the ``start_latest`` override (-1) never
        matters.  A row where availability is negative (a status integral
        can round down) could turn a negative time score into a positive
        total, so its bound is +inf.
        """
        f = self._factors(task) if factors is None else factors
        times = ctx.times[:k]
        exp = task.expiration
        left = exp - times
        eff = times if task.start_earliest is None else np.maximum(times, task.start_earliest)
        ts = ((exp - ((eff + task.duration) - times)) - times) / left
        # (times, workers), so that the reductions run over contiguous rows.
        avail = np.subtract(f.cum_exp, ctx.cum_status.T[:k])
        np.divide(avail, left[:, None], out=avail)
        negative = avail.min(axis=0) < 0.0
        np.multiply(ts[:, None], avail, out=avail)
        bound = (avail.max(axis=0) * f.rw) * f.tw
        bound[negative] = np.inf
        return bound


def _breakdown(s: _Scores, i) -> ScoreBreakdown:
    """The factors at index ``i`` of a score table whose ``rw``/``tw`` share that index."""
    ts = float(s.ts[i])
    return ScoreBreakdown(
        time_score=ts,
        availability=float(s.avail[i]),
        reward=float(s.rw[i]),
        trust_weighted=float(s.tw[i]),
        total=float(s.total[i]),
        time_feasible=ts > 0.0,
    )


def _availability_mask(
    engine: ScoreEngine, ttc: np.ndarray, t: float, exclude_workers: Iterable[int]
) -> np.ndarray:
    """Workers free over [t, t + ttc) and not excluded."""
    mask = ~engine.booked(t, t + ttc)
    for wid in exclude_workers:
        i = engine.index_of.get(wid)
        if i is not None:
            mask[i] = False
    return mask


# ---------------------------------------------------------------------------
# online greedy assignment


def online_assign(
    task: Task,
    engine: ScoreEngine,
    t: float,
    *,
    already_raised: float = 0.0,
    exclude_workers: Iterable[int] = (),
) -> AssignOutcome:
    """Assign one task right now to the worker with the best positive total.

    Workers whose bookings overlap the candidate work interval are treated
    as unavailable.  When every time-feasible and available worker fails
    only on the reward factor, the owner's raise policy bumps the offered
    reward by ``raise_increment`` (up to ``max_reward_raise``, less
    ``already_raised``) and retries; an owner with ``max_reward_raise = 0``
    never raises.  Ties on the total are broken toward the lowest worker id.
    """
    if not (math.isfinite(task.pto_reward) and math.isfinite(already_raised)):
        # A NaN raise total never reaches max_reward_raise: the loop would spin.
        raise ValueError(
            f"task {task.id}: reward {task.pto_reward} and already_raised {already_raised} must be finite"
        )
    if t >= task.expiration:
        raise TaskExpiredError(f"task {task.id} expired at {task.expiration}, assignment at t={t}")
    exclude = frozenset(exclude_workers)
    raised = already_raised
    eff_task = task
    while True:
        s = engine.score_at(eff_task, t)
        mask = _availability_mask(engine, s.ttc, t, exclude)
        if not mask.any():
            return AssignOutcome.failure(OutcomeKind.NO_SUITABLE_WORKER)
        masked_total = np.where(mask, s.total, -np.inf)
        best = float(masked_total.max())
        if best > 0.0:
            i = int(np.argmax(masked_total))
            assignment = Assignment(
                task_id=task.id,
                worker_id=engine.workers[i].id,
                dispatch_time=t,
                breakdown=_breakdown(s, i),
                ttc_min=float(s.ttc[i]),
                travel_km=float(s.travel_km[i]),
            )
            return AssignOutcome.assigned_to(assignment, eff_task.pto_reward)
        ts_ok = mask & (s.ts > 0)
        if not ts_ok.any():
            return AssignOutcome.failure(OutcomeKind.DEADLINE_INFEASIBLE)
        reward_only = ts_ok & (s.avail > 0) & (s.tw > 0) & (s.rw == 0)
        if not reward_only.any():
            return AssignOutcome.failure(OutcomeKind.NO_SUITABLE_WORKER)
        owner = engine.owners[task.owner_id]
        increment = min(owner.raise_increment, owner.max_reward_raise - raised)
        if increment > 0:
            raised += increment
            eff_task = replace(eff_task, pto_reward=eff_task.pto_reward + increment)
            continue
        return AssignOutcome.failure(OutcomeKind.REWARD_INSUFFICIENT)


# ---------------------------------------------------------------------------
# nearest-distance baseline


def baseline_nearest(
    task: Task,
    engine: ScoreEngine,
    t: float,
    *,
    exclude_workers: Iterable[int] = (),
) -> AssignOutcome:
    """Assign to the nearest unoccupied worker by centroid distance.

    Deliberately ignores availability, reward, and trust; only the winner
    is scored, for reporting.  Distance ties go to the lowest worker id.
    """
    times = np.array([t])
    x, y = engine._positions(times)
    dist, _eff, ttc = engine._reach(task, times, x[:, 0], y[:, 0], engine._speeds(times))
    free = np.flatnonzero(_availability_mask(engine, ttc, t, exclude_workers))
    if not len(free):
        return AssignOutcome.failure(OutcomeKind.NO_SUITABLE_WORKER)
    i = int(free[np.argmin(dist[free])])
    worker = engine.live_worker(engine.workers[i].id)
    assignment = Assignment(
        task_id=task.id,
        worker_id=worker.id,
        dispatch_time=t,
        breakdown=total_score(
            task, worker, engine.owners[task.owner_id], engine.categories[task.category_id], t, engine.velocity
        ),
        ttc_min=float(ttc[i]),
        travel_km=float(dist[i]),
    )
    return AssignOutcome.assigned_to(assignment, task.pto_reward)


# ---------------------------------------------------------------------------
# offline batch assignment


def _tie_pick(seed: int, worker_id: int, tied_ids: list[int]) -> int:
    """Seeded, order-independent choice among tasks tied on (priority, total)."""
    ids = sorted(tied_ids)
    rnd = random.Random(f"{seed}|{worker_id}|{','.join(map(str, ids))}")
    return rnd.choice(ids)


class _Candidates:
    """One batched task: its candidate pairs and the pair it proposes.

    Pairs are sorted by (total desc, worker id asc, time asc); the proposal
    is the pair at ``pointer``.  Only a prefix of that order is materialised,
    found by a threshold search (Fagin, Lotem & Naor, PODS 2001) over
    per-worker score bounds that need no distances.  When the pointer runs
    past the prefix, the search runs again for a prefix twice as long.
    """

    __slots__ = (
        "task", "priority", "reason", "pointer", "w", "time", "pairs", "_grid",
        "worker", "t0", "t1", "total", "clash",
    )

    def __init__(self, task: Task, priority: float):
        self.task = task
        self.priority = priority
        self.reason: OutcomeKind | None = None  # why the task is not placed, once that is known
        self.pointer = 0
        self.w: np.ndarray = np.empty(0, dtype=np.intp)  # worker index of each pair
        self.time: np.ndarray = np.empty(0)  # dispatch time of each pair
        self.pairs: _Scores | None = None  # the pairs' factors, in the same order
        self._grid = None  # (score, bound, times) while positive pairs may lie past the prefix
        self.worker = -1  # worker index of the proposed pair
        self.t0 = self.t1 = self.total = 0.0  # its work interval [t0, t1) and total
        self.clash = False  # whether [t0, t1) overlaps one of the worker's bookings

    def load(self, score, bound: np.ndarray, times: np.ndarray, cap: int) -> None:
        """Keep the first ``cap`` positive pairs of the grid over ``times``, scoring rows only as needed.

        ``score(rows)`` scores the worker rows ``rows`` (an index array, or
        ``slice(None)`` for all), and ``bound[r]`` is at or above every
        positive total in row ``r``.  Rows are scored in descending bound
        order, in blocks of ``_ROW_BLOCK`` rows that double each time.  Once
        ``cap`` positive totals are known, let T be the cap-th best: a row
        whose bound is below T holds no pair of the prefix, so the search
        stops at the first such row.  A row whose bound equals T may hold a
        total of T that wins its tie on worker id, so it is still scored.
        Keeping every scored pair at or above T then gives exactly the prefix
        a full grid would, ties at the cutoff included.  A task with no
        positive pair is scored over the full grid once more for its reason.
        """
        order = np.argsort(-bound)
        live = int(np.count_nonzero(bound > 0.0))
        blocks: list[tuple[np.ndarray, _Scores]] = []
        found = np.empty(0)  # positive totals of the rows scored so far
        start, size = 0, _ROW_BLOCK
        while start < live:
            if len(found) >= cap and bound[order[start]] < np.partition(found, -cap)[-cap]:
                break
            rows = order[start : min(start + size, live)]
            g = score(rows)
            blocks.append((rows, g))
            found = np.concatenate((found, g.total[g.total > 0.0]))
            start += len(rows)
            size *= 2
        n_positive = len(found)
        if n_positive == 0:
            g = score(slice(None))
            ts_ok = g.ts > 0
            if not ts_ok.any():
                self.reason = OutcomeKind.DEADLINE_INFEASIBLE
            elif (ts_ok & (g.avail > 0) & (g.rw[:, None] == 0) & (g.tw[:, None] > 0)).any():
                self.reason = OutcomeKind.REWARD_INSUFFICIENT
            else:
                self.reason = OutcomeKind.NO_SUITABLE_WORKER
            return
        # Every pair at or above the cap-th best total (or every positive
        # pair, when fewer were found), so that after the lexsort the kept
        # pairs are the exact prefix of the full preference order.
        m = min(cap, n_positive)
        cutoff = np.partition(found, -m)[-m]
        self._grid = (score, bound, times) if n_positive > cap or start < live else None
        cols = []
        for rows, g in blocks:
            sel = np.flatnonzero(g.total >= cutoff)
            r, t = np.divmod(sel, g.total.shape[1])
            per_cell = (g.total, g.ts, g.avail, g.ttc, g.travel_km)
            cols.append((rows[r], t, *(a.ravel()[sel] for a in per_cell), g.rw[r], g.tw[r]))
        w, t, total, ts, avail, ttc, travel_km, rw, tw = (np.concatenate(c) for c in zip(*cols))
        order = np.lexsort((t, w, -total))[:cap]
        self.w = w[order]
        self.time = times[t[order]]
        self.pairs = _Scores(
            total=total[order],
            ts=ts[order],
            avail=avail[order],
            ttc=ttc[order],
            travel_km=travel_km[order],
            rw=rw[order],
            tw=tw[order],
        )

    def propose(self) -> bool:
        """Make the pair at the pointer the proposal; False, with a reason, when no pair is left."""
        if self.pointer == len(self.w) and self._grid is not None:
            self.load(*self._grid, 2 * len(self.w))
        i = self.pointer
        if i >= len(self.w):
            # Every positive pair was lost to bookings or competition.
            self.reason = OutcomeKind.NO_SUITABLE_WORKER
            return False
        self.worker = int(self.w[i])
        self.t0 = float(self.time[i])
        self.t1 = self.t0 + float(self.pairs.ttc[i])
        self.total = float(self.pairs.total[i])
        return True


def offline_assign(
    tasks: Sequence[Task],
    engine: ScoreEngine,
    now: float,
    grid: TimeGrid,
    rng_seed: int = 0,
) -> tuple[list[Assignment], list[tuple[int, OutcomeKind]]]:
    """Batch-assign tasks to (worker, dispatch time) pairs on the grid.

    Candidate pairs for a task are every grid time before its expiration
    crossed with every worker, kept when the total score is positive, and
    preferred by higher total, then lower worker id, then earlier time.
    Conflicts are settled in proposal rounds: every unplaced task proposes
    its best remaining pair; on each worker, proposals are honoured in
    order of task priority score, then total, then a seeded draw among
    exact ties, and a proposal whose work interval overlaps the worker's
    bookings or an already honoured interval is refused.  Refused tasks
    move to their next pair and the rounds repeat until nothing is refused.
    A round re-decides only the workers that received a new proposal, over
    all the proposals they hold; every other worker would honour the same
    proposals again, so the rounds are the same as when every worker
    decides in each.  Scores are computed once against the state at ``now``
    and never revised within the batch.
    """
    if not tasks:
        return [], []
    late = [t.id for t in tasks if t.expiration <= now]
    if late:
        raise ValueError(f"tasks already expired at batch time {now}: {late}")
    tasks_sorted = sorted(tasks, key=lambda t: t.id)
    if not engine.workers:
        return [], [(t.id, OutcomeKind.NO_SUITABLE_WORKER) for t in tasks_sorted]

    max_exp = max(t.expiration for t in tasks_sorted)
    times = grid.times(now, before=max_exp)
    ctx = engine.grid_context(times) if len(times) else None
    cum_exps = engine._cumulative(np.array([t.expiration for t in tasks_sorted]))

    cands: list[_Candidates] = []
    for j, task in enumerate(tasks_sorted):
        cand = _Candidates(
            task, task_priority_score(task, engine.owners[task.owner_id], engine.categories[task.category_id])
        )
        k = int(np.searchsorted(times, task.expiration, side="left")) if ctx is not None else 0
        if k == 0:
            cand.reason = OutcomeKind.DEADLINE_INFEASIBLE
        else:
            f = engine._factors(task, cum_exps[:, j])
            cand.load(
                partial(engine.score_grid, task, ctx, k, factors=f),
                engine.row_bounds(task, ctx, k, factors=f),
                ctx.times,
                _CANDIDATE_BLOCK,
            )
        cands.append(cand)

    # Honoured proposals persist across rounds.  A worker that only lost
    # refused proposals keeps the rest: they were pairwise disjoint and free
    # of bookings, and no booking changes in this call.
    held: dict[int, list[_Candidates]] = {}
    movers = [c for c in cands if c.reason is None]
    while movers:
        movers = [c for c in movers if c.propose()]
        # The round's new proposals against the live bookings at once.
        booked = engine.booked(
            np.array([c.t0 for c in movers]),
            np.array([c.t1 for c in movers]),
            np.array([c.worker for c in movers], dtype=np.intp),
        )
        for c, clash in zip(movers, booked.tolist()):
            c.clash = clash
            held.setdefault(c.worker, []).append(c)

        refused: list[_Candidates] = []
        for w in sorted({c.worker for c in movers}):
            ranked = sorted(held[w], key=lambda c: (-c.priority, -c.total, c.task.id))
            kept = held[w] = []
            for _key, group in groupby(ranked, key=lambda c: (c.priority, c.total)):
                run = list(group)
                # A seeded draw decides exact (priority, total) ties.
                if len(run) > 1:
                    winner = _tie_pick(rng_seed, engine.workers[w].id, [c.task.id for c in run])
                    run.sort(key=lambda c: c.task.id != winner)  # the winner, then the rest in id order
                for c in run:
                    if c.clash or any(h.t0 < c.t1 and c.t0 < h.t1 for h in kept):
                        c.pointer += 1
                        refused.append(c)
                    else:
                        kept.append(c)
        movers = refused

    assignments: list[Assignment] = []
    unassigned: list[tuple[int, OutcomeKind]] = []
    for c in cands:
        if c.reason is not None:
            unassigned.append((c.task.id, c.reason))
            continue
        i = c.pointer
        assignments.append(
            Assignment(
                task_id=c.task.id,
                worker_id=engine.workers[c.worker].id,
                dispatch_time=c.t0,
                breakdown=_breakdown(c.pairs, i),
                ttc_min=float(c.pairs.ttc[i]),
                travel_km=float(c.pairs.travel_km[i]),
            )
        )
    return assignments, unassigned
