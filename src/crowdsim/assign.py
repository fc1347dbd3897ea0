"""Task-to-worker assigners: offline batch, online greedy, and a nearest baseline.

The scalar formulas in ``scoring`` stay the readable reference; this module
contains a vectorised mirror of them (``ScoreEngine``) that evaluates whole
worker sets and dispatch-time grids at once.  The mirror reproduces the
scalar arithmetic operation-for-operation so both paths agree bit-for-bit.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .model import Task, TaskCategory, TaskOwner, TrustCounters, Worker, centroid, counters_for
from .schedule import WEEK_MINUTES, WeeklySchedule
from .scoring import (
    ScoreBreakdown,
    TaskExpiredError,
    VelocityProfile,
    reach,
    task_priority_score,
    total_score,
    trust_exponent,
    trustworthy_score,
)

#: Worker rows scored in a task's first block of the threshold search; each later block doubles.
_ROW_BLOCK = 16
#: Final pairs ordered in a task's first chunk; each later chunk doubles.  At
#: the week shape half the batched tasks take at most 15 proposals, and
#: three quarters at most 32.
_PAIR_CHUNK = 32
#: (task, worker) cells the batch bound computes at a time: 16 tasks at the
#: week shape's 1000 workers, so its temporaries stay small beside the bound.
_BOUND_CELLS = 1 << 14
#: Bytes of rank columns each piece table memoises (at the week shape's 1000
#: workers, 524 place columns; the pattern table there has 11 ranks, and the
#: status table, one row per status class, holds all of its 112).
_COLUMN_MEMO_BYTES = 8 << 20


@dataclass(frozen=True)
class TimeGrid:
    """Dispatch-time lattice used by the batch assigner."""

    step_min: float = 15.0
    horizon_min: float = WEEK_MINUTES

    def __post_init__(self) -> None:
        # A step under a minute can round away at large times, so a retry
        # one step later would not move the clock on.
        if not (1.0 <= self.step_min < math.inf):
            raise ValueError(f"grid step must be finite and at least 1 minute, got {self.step_min}")
        if not (0 <= self.horizon_min < math.inf):
            raise ValueError(f"grid horizon must be finite and >= 0, got {self.horizon_min}")

    def times(self, now: float, before: float) -> np.ndarray:
        """Grid points ``now + k*step`` with ``t < before`` and ``t <= horizon``."""
        # One point more per count, as a quotient can round either way; the filter drops points past an end.
        count_before = math.ceil((before - now) / self.step_min) + 1
        if self.horizon_min < now:
            return np.empty(0, dtype=float)
        count_horizon = math.floor((self.horizon_min - now) / self.step_min) + 2
        ts = now + self.step_min * np.arange(max(0, min(count_before, count_horizon)), dtype=float)
        return ts[(ts < before) & (ts <= self.horizon_min)]


class OutcomeKind(str, Enum):
    ASSIGNED = "assigned"
    DEADLINE_INFEASIBLE = "deadline-infeasible"
    REWARD_INSUFFICIENT = "reward-insufficient"
    NO_SUITABLE_WORKER = "no-suitable-worker"


@dataclass(frozen=True)
class Assignment:
    """A concrete (task, worker, dispatch time) decision with the scalar breakdown it was scored on."""

    task_id: int
    worker_id: int
    dispatch_time: float
    breakdown: ScoreBreakdown

    @property
    def booking(self) -> tuple[float, float]:
        """Half-open interval the worker is considered occupied for: the dispatch time plus the time to complete."""
        return (self.dispatch_time, self.dispatch_time + self.breakdown.ttc_min)


@dataclass(frozen=True)
class AssignOutcome:
    """Result of one assignment attempt; exactly one variant applies."""

    kind: OutcomeKind
    assignment: Assignment | None = None
    effective_reward: float | None = None


# ---------------------------------------------------------------------------
# vectorised scoring engine


@dataclass
class _Scores:
    """Score factors for one task over workers (1-D) or worker rows x times (2-D); ``rw`` and ``tw`` are per row."""

    total: np.ndarray
    ts: np.ndarray
    avail: np.ndarray
    ttc: np.ndarray
    rw: np.ndarray
    tw: np.ndarray


@dataclass
class GridContext:
    """Positions per worker, status integrals per status class, and speed, at shared dispatch times.

    A grid stacks one memo column per time.
    """

    times: np.ndarray
    x: np.ndarray  # (workers, times), a view of a time-major array
    y: np.ndarray
    cum_status: np.ndarray  # (classes, times), a view of a time-major array
    speed: np.ndarray  # (times,)
    tasks: dict[int, tuple[int, np.ndarray]]  # id -> (its grid length, its (classes,) integrals to expiration)


class _PieceTable:
    """The piece values of many weekly schedules, one row each, for one exact lookup.

    A week minute's rank is its place among ``cuts``, the sorted unique
    inner piece ends of all rows (all but a schedule's last end, which is the
    week's end).  Every row's piece at a minute depends only on that rank, so
    :meth:`at` finds the rank with one search and serves its column from a
    memo bounded by ``_COLUMN_MEMO_BYTES``; a full memo drops its oldest
    column, which is the least recently used while lookups move forward in
    time.
    A column holds every row's ``values`` (per-piece fields, shaped (fields,
    pieces), the rows' pieces end to end) at its piece, shaped (fields,
    rows).  It is found by keying every inner end ``row * (len(cuts) + 1) +
    rank``, and the rank the same way, so one ``searchsorted`` over integer
    keys counts each row's ends at or before it.  Float keys such as ``end +
    row * WEEK_MINUTES`` would round near piece ends.  Leaving out the last
    end puts minutes that round up to the week's end in the last piece, the
    clamp ``WeeklySchedule`` applies.
    """

    def __init__(self, schedules: Sequence[WeeklySchedule], values: np.ndarray):
        ends = np.array([e for s in schedules for e in s.piece_ends[:-1]], dtype=float)
        cuts = np.unique(ends)
        self._cuts = cuts.tolist()
        self._rows = np.arange(len(schedules))
        self._row_keys = self._rows * (len(cuts) + 1)
        self._keys = np.repeat(self._row_keys, [len(s.piece_ends) - 1 for s in schedules])
        self._keys += np.searchsorted(cuts, ends)
        self._values = values
        self._columns: dict[int, np.ndarray] = {}
        self._capacity = max(1, _COLUMN_MEMO_BYTES // max(1, len(values) * len(schedules) * values.itemsize))

    def at(self, tm: float) -> np.ndarray:
        """The read-only memoised column of the week minute ``tm``'s rank, shaped (fields, rows)."""
        rank = bisect_right(self._cuts, tm)
        cols = self._columns
        col = cols.get(rank)
        if col is None:
            col = self._values[:, np.searchsorted(self._keys, self._row_keys + rank) + self._rows]
            col.flags.writeable = False
            cols[rank] = col
            if len(cols) > self._capacity:
                del cols[next(iter(cols))]
        return col


class ScoreEngine:
    """Vectorised evaluation of the total score for a fixed worker population.

    The engine is the registry a run assigns against: its workers, the task
    categories and owners by id, and the travel speed.  Each task's owner and
    category are looked up from the task's own ids.  Workers are kept sorted
    by id, so "first index" tie-breaks equal "lowest worker id".  The
    records in ``workers`` are the caller's, never copied or changed; the
    run state lives beside them.  ``trust`` holds the live counters, one
    dict per worker index starting as a copy of the record's, which
    :meth:`refresh_trust` advances.  The live bookings are one list per
    worker that holds any, which :meth:`book` and :meth:`release` change.
    Each schedule lookup reads one time's memoised piece-table column;
    :meth:`grid_context` stacks one such column per batch grid time.

    Workers that declare the same status schedule form one status class:
    the status table has one row per class, and ``_class`` gives each
    worker's class (classes numbered in worker order).  Availability is
    computed per class, with each cell's operands and operations, and
    gathered to workers only where it meets a per-worker factor, so every
    score is the one a row per worker would give, bit for bit.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        categories: Sequence[TaskCategory],
        owners: Sequence[TaskOwner],
        velocity: VelocityProfile,
    ):
        self.workers: list[Worker] = sorted(workers, key=lambda w: w.id)
        self.trust: list[dict[int, TrustCounters]] = [dict(w.trust) for w in self.workers]
        self.index_of: dict[int, int] = {w.id: i for i, w in enumerate(self.workers)}
        self.categories: dict[int, TaskCategory] = {c.id: c for c in categories}
        self.owners: dict[int, TaskOwner] = {o.id: o for o in owners}
        self.velocity = velocity

        # Per-piece fields in each table's row order: places (x, y); status integral to the piece start, value, start.
        patterns = [w.pattern for w in self.workers]
        cents = [centroid(v) for p in patterns for v in p.piece_values]
        self._pattern = _PieceTable(patterns, np.array([[c.x for c in cents], [c.y for c in cents]], dtype=float))
        # A status class is keyed on the bits of its piece starts and values,
        # which fix its ends and integrals: 1 and 1.0 share a class, 0.0 and -0.0 do not.
        class_of: dict[bytes, int] = {}
        statuses: list[WeeklySchedule] = []  # one per class, in worker order
        classes = []
        for w in self.workers:
            s = w.status
            if s.piece_prefix is None:
                raise TypeError(f"worker {w.id} status schedule is not numeric")
            c = class_of.setdefault(np.array((s.piece_starts, s.piece_values), float).tobytes(), len(statuses))
            if c == len(statuses):
                statuses.append(s)
            classes.append(c)
        self._class = np.array(classes, dtype=np.intp)
        pieces = [(p, float(v), t) for s in statuses for p, v, t in zip(s.piece_prefix, s.piece_values, s.piece_starts)]
        self._status = _PieceTable(statuses, np.array(pieces, dtype=float).reshape(-1, 3).T)
        self._st_week = np.array([s.week_integral for s in statuses], dtype=float)

        self._demand: dict[int, np.ndarray] = {
            c.id: np.array([w.reward_demand.get(c.id, c.cat_reward) for w in self.workers])
            for c in self.categories.values()
        }
        # The powered trust per category, cached per exponent and computed
        # from Python floats for bit-exact scalar powers.
        self._trust_pow: dict[int, dict[float, np.ndarray]] = {c: {} for c in self.categories}

        # Live bookings by worker index, half-open [start, end) in booking
        # order; only the workers that hold a booking have an entry.
        self._bookings: dict[int, list[tuple[float, float]]] = {}
        for w in self.workers:
            for start, end in w.bookings:
                self.book(w.id, start, end)

    # -- live state ----------------------------------------------------

    def book(self, worker_id: int, start: float, end: float) -> None:
        """Book a worker for [start, end)."""
        self._bookings.setdefault(self.index_of[worker_id], []).append((start, end))

    def release(self, worker_id: int, start: float, end: float) -> None:
        """Drop one booking of [start, end) that :meth:`book` placed; a worker's last release drops its entry."""
        i = self.index_of[worker_id]
        held = self._bookings.get(i, [])
        try:
            held.remove((start, end))
        except ValueError:
            raise ValueError(f"worker {worker_id} holds no booking [{start}, {end})") from None
        if not held:
            del self._bookings[i]

    def is_free(self, i: int, start: float, end: float) -> bool:
        """Whether [start, end) overlaps none of worker index ``i``'s bookings."""
        return not any(s < end and e > start for s, e in self._bookings.get(i, ()))

    def refresh_trust(self, worker_id: int, category_id: int, event: str) -> None:
        """Advance one trust counter on ``event`` and update the cached trust of that category."""
        i = self.index_of[worker_id]
        c = self._counters(i, category_id)
        if event not in ("assigned", "accepted", "completed"):
            raise ValueError(f"unknown trust event {event!r}")
        c = TrustCounters(
            c.assigned + (event == "assigned"),
            c.accepted + (event == "accepted"),
            c.completed + (event == "completed"),
            c.initial_score,
        )
        if not (c.completed <= c.accepted <= c.assigned):
            raise RuntimeError(
                f"internal fault: worker {worker_id} {event} a category-{category_id} task out of order"
            )
        self.trust[i][category_id] = c
        raw = trustworthy_score(c)
        for exponent, vec in self._trust_pow[category_id].items():
            vec[i] = raw**exponent

    def _counters(self, i: int, category_id: int) -> TrustCounters:
        return counters_for(self.trust[i], category_id)

    def _trust_vector(self, task: Task) -> np.ndarray:
        exponent = trust_exponent(self.owners[task.owner_id])
        cached = self._trust_pow[task.category_id]
        vec = cached.get(exponent)
        if vec is None:
            raws = (trustworthy_score(self._counters(i, task.category_id)) for i in range(len(self.trust)))
            vec = cached[exponent] = np.array([r**exponent for r in raws])
        return vec

    # -- time lookups ----------------------------------------------------

    def _places(self, t: float) -> np.ndarray:
        """Every worker's expected centroid (x, y) at ``t``: the read-only memoised column, shaped (2, workers)."""
        return self._pattern.at(t % WEEK_MINUTES)

    def _cumulative(self, ts: np.ndarray) -> np.ndarray:
        """Each status class's integral from 0 to each time of ``ts``, shaped (times, classes).

        ``WeeklySchedule.cumulative`` on the memoised columns, with its
        operations in its order, elementwise over the times.
        """
        nw = np.floor(ts / WEEK_MINUTES)
        tm = ts - nw * WEEK_MINUTES
        prefix, value, start = np.array([self._status.at(m) for m in tm.tolist()]).transpose(1, 0, 2)
        return nw[:, None] * self._st_week + prefix + value * (tm[:, None] - start)

    def grid_context(self, tasks: Sequence[Task], times: np.ndarray) -> GridContext:
        """Positions, status integrals and speed at batch grid times, and the tasks' entries: one status lookup."""
        ts = times.tolist()
        places = np.stack([self._places(t) for t in ts])
        speed = np.array([self.velocity.speed_at(t) for t in ts], dtype=float)
        exps = [t.expiration for t in tasks]
        cum = self._cumulative(np.array(ts + exps, dtype=float))
        ks = np.searchsorted(times, exps, side="left").tolist()
        entries = {t.id: (k, c) for t, k, c in zip(tasks, ks, cum[len(ts) :])}
        return GridContext(times, places[:, 0].T, places[:, 1].T, cum[: len(ts)].T, speed, entries)

    # -- scoring ----------------------------------------------------------

    def _distance(self, task: Task, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The distance from each position to the task's centroid, in a new array."""
        c = centroid(task.region)
        dist = np.subtract(c.x, x)
        dy = np.subtract(c.y, y)
        np.multiply(dist, dist, out=dist)
        np.multiply(dy, dy, out=dy)
        return np.sqrt(np.add(dist, dy, out=dist), out=dist)

    def _reach(self, task: Task, times: np.ndarray | float, dist: np.ndarray, speed: np.ndarray | float):
        """Effective start and time to complete, travelling ``dist`` km at ``speed`` km/h from ``times``.

        ``scoring.reach`` over arrays: its operations, in its order, write in
        place into this call's own arrays.
        """
        eff = np.divide(dist, speed)  # travel minutes, then the effective start
        np.multiply(eff, 60.0, out=eff)
        np.add(times, eff, out=eff)
        if task.start_earliest is not None:
            np.maximum(eff, task.start_earliest, out=eff)
        ttc = np.add(eff, task.duration)
        return eff, np.subtract(ttc, times, out=ttc)

    def _score(self, task: Task, ctx: GridContext, rows=slice(None)) -> _Scores:
        """The total score and its factors over the worker ``rows`` and the task's grid times in ``ctx``.

        Reward demand and trust are the engine's own per-category rows,
        shared by every task of a category (and owner exponent).
        """
        k, cum_exp = ctx.tasks[task.id]
        times = ctx.times[:k]
        eff, ttc = self._reach(task, times, self._distance(task, ctx.x[rows, :k], ctx.y[rows, :k]), ctx.speed[:k])
        exp = task.expiration
        left = exp - times
        ts = np.subtract(exp, ttc)
        np.subtract(ts, times, out=ts)
        np.divide(ts, left, out=ts)
        if task.start_latest is not None:
            ts[eff > task.start_latest] = -1.0
        rw, tw = _reward_factor(task.pto_reward, self._demand[task.category_id][rows]), self._trust_vector(task)[rows]
        # Availability per status class, then gathered to the rows.
        avail = np.subtract(cum_exp[:, None], ctx.cum_status[:, :k])
        np.divide(avail, left, out=avail)
        avail = avail[self._class[rows]]
        total = np.multiply(ts, avail)
        np.multiply(total, rw[:, None], out=total)
        np.multiply(total, tw[:, None], out=total)
        return _Scores(total=total, ts=ts, avail=avail, ttc=ttc, rw=rw, tw=tw)

    # The batch's name for the kernel, which the benchmark traces; score_at calls _score.
    score_grid = _score

    def score_at(self, task: Task, t: float) -> _Scores:
        """Score every worker for ``task`` dispatched at the single time ``t``."""
        cum_t, cum_exp = self._cumulative(np.array([t, task.expiration]))  # one lookup for both times
        (x, y), speed = self._places(t)[:, :, None], np.array([self.velocity.speed_at(t)])
        s = self._score(task, GridContext(np.array([t]), x, y, cum_t[:, None], speed, {task.id: (1, cum_exp)}))
        return _Scores(s.total[:, 0], s.ts[:, 0], s.avail[:, 0], s.ttc[:, 0], s.rw, s.tw)

    def row_bounds(self, tasks: Sequence[Task], ctx: GridContext) -> np.ndarray:
        """Per task and worker, a bound at or above every positive total :meth:`score_grid` gives.

        Shaped (tasks, workers); each task's grid length in ``ctx`` is at
        least 1.  The bound takes no distance.  Travel is never negative, so
        the kernel's effective start is at least ``max(t, start_earliest)``;
        from that lower start the time score is computed with the kernel's
        own operations, and as IEEE rounding is monotone it is at least the
        kernel's in every cell, and so are its products with the
        non-negative availability, reward and trust.  A positive total needs
        a positive time score, so the ``start_latest`` override (-1) never
        matters.  A row where availability is negative (a status integral
        can round down) could turn a negative time score into a positive
        total, so its bound is +inf.

        Every worker of a status class has its class's availability, so the
        negative test and the maximum over times are taken per class, in
        O(classes x times) per task, and gathered to the workers: each
        worker's bound is the one its own column would give, bit for bit.
        Tasks are bounded ``_BOUND_CELLS // workers`` at a time, each group
        over its longest grid.  A cell past a task's grid length takes a time
        left of 1, so it raises no warning, and the reductions skip it.
        """
        bound = np.empty((len(tasks), len(self.workers)))
        step = max(1, _BOUND_CELLS // max(1, len(self.workers)))
        for a in range(0, len(tasks), step):
            group = tasks[a : a + step]
            kg, cum_exp = map(np.array, zip(*(ctx.tasks[t.id] for t in group)))
            times = ctx.times[: kg.max()]
            inside = np.arange(len(times)) < kg[:, None]  # (tasks, times)
            exp, dur, earliest = np.array(
                [(t.expiration, t.duration, -np.inf if t.start_earliest is None else t.start_earliest) for t in group]
            ).T[:, :, None]
            left = np.where(inside, exp - times, 1.0)
            ts = ((exp - ((np.maximum(times, earliest) + dur) - times)) - times) / left
            # (tasks, times, classes), so that the reductions over times run per task.
            avail = np.subtract(cum_exp[:, None], ctx.cum_status.T[: len(times)])
            np.divide(avail, left[:, :, None], out=avail)
            negative = avail.min(axis=1, where=inside[:, :, None], initial=np.inf) < 0.0
            np.multiply(ts[:, :, None], avail, out=avail)
            best = avail.max(axis=1, where=inside[:, :, None], initial=-np.inf)
            demand = np.stack([self._demand[t.category_id] for t in group])
            rw = _reward_factor(np.array([t.pto_reward for t in group])[:, None], demand)
            out = bound[a : a + step]
            np.multiply(best[:, self._class], rw, out=out)
            np.multiply(out, np.stack([self._trust_vector(t) for t in group]), out=out)
            out[negative[:, self._class]] = np.inf
        return bound


def _reward_factor(reward, demand: np.ndarray) -> np.ndarray:
    """``scoring.reward_score`` of the offered ``reward`` against each worker's ``demand``, elementwise."""
    margin = reward - demand
    return np.where(margin > 0, margin / reward, 0.0)


def _placement(engine: ScoreEngine, task: Task, i: int, t: float) -> Assignment:
    """Worker index ``i`` placed on ``task`` at ``t``: the one way an assigner builds an :class:`Assignment`.

    Every figure of the placement, its booking included, comes from one
    scalar ``total_score`` call; the kernel, which ranks the workers, gives
    the same factors and reach bit for bit.  The score reads the engine's
    live trust counters for index ``i`` and no bookings, so it builds no record.
    """
    worker, owner, category = engine.workers[i], engine.owners[task.owner_id], engine.categories[task.category_id]
    trust = engine._counters(i, category.id)
    return Assignment(task.id, worker.id, t, total_score(task, worker, owner, category, t, engine.velocity, trust))


def _failure(ts_ok: np.ndarray, avail: np.ndarray, rw: np.ndarray, tw: np.ndarray) -> OutcomeKind:
    """Why no pair scores positive, given whose time scores are positive (``ts_ok``) and the other factors.

    No positive time score makes the deadline infeasible.  A pair that
    fails only on the reward makes the reward insufficient; anything else
    leaves no suitable worker.
    """
    if not ts_ok.any():
        return OutcomeKind.DEADLINE_INFEASIBLE
    if (ts_ok & (avail > 0) & (tw > 0) & (rw == 0)).any():
        return OutcomeKind.REWARD_INSUFFICIENT
    return OutcomeKind.NO_SUITABLE_WORKER


def _availability_mask(
    engine: ScoreEngine, ttc: np.ndarray, t: float, exclude_workers: Iterable[int]
) -> np.ndarray:
    """Workers free over [t, t + ttc) and not excluded.

    Only the workers holding bookings are scanned, with :meth:`ScoreEngine.is_free`'s
    test written inline: a call per busy worker would cost more than its scan.
    """
    mask = np.ones(len(engine.workers), dtype=bool)
    busy = engine._bookings
    for (i, held), end in zip(busy.items(), (t + ttc[list(busy)]).tolist()):
        for s, e in held:
            if s < end and e > t:
                mask[i] = False
                break
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
    if not math.isfinite(t):
        raise ValueError(f"task {task.id}: dispatch time must be finite, got {t}")
    if t >= task.expiration:
        raise TaskExpiredError(f"task {task.id} expired at {task.expiration}, assignment at t={t}")
    s = engine.score_at(task, t)
    # A raise changes only the reward factor: the times to complete, and so the mask, stay.
    mask = _availability_mask(engine, s.ttc, t, frozenset(exclude_workers))
    if not mask.any():
        return AssignOutcome(OutcomeKind.NO_SUITABLE_WORKER)
    raised = already_raised
    eff_task = task
    while True:
        masked_total = np.where(mask, s.total, -np.inf)
        best = float(masked_total.max())
        if best > 0.0:
            i = int(np.argmax(masked_total))
            return AssignOutcome(OutcomeKind.ASSIGNED, _placement(engine, eff_task, i, t), eff_task.pto_reward)
        kind = _failure(mask & (s.ts > 0), s.avail, s.rw, s.tw)
        if kind is OutcomeKind.REWARD_INSUFFICIENT:
            owner = engine.owners[task.owner_id]
            increment = min(owner.raise_increment, owner.max_reward_raise - raised)
            if increment > 0:
                raised += increment
                eff_task = replace(eff_task, pto_reward=eff_task.pto_reward + increment)
                s = engine.score_at(eff_task, t)
                continue
        return AssignOutcome(kind)


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

    Deliberately ignores availability, reward, and trust; only placements
    are scored, for reporting.  Distance ties go to the lowest worker id.
    Only the distances are computed over every worker at first.  The
    nearest worker that is not excluded wins if its work interval, timed by
    ``scoring.reach`` from the kernel's distance (the kernel's time to
    complete, bit for bit), leaves it free: masking busy workers out only
    raises other distances, so it is also the first minimum of the masked
    distances.  When it is taken, or no distance is finite, the full
    booking mask decides on the same distances (an excluded worker's is
    infinite; the mask drops it).  Only the winner is placed.
    """
    exclude = frozenset(exclude_workers)
    x, y = engine._places(t)
    near = engine._distance(task, x, y)
    for wid in exclude:
        i = engine.index_of.get(wid)
        if i is not None:
            near[i] = np.inf
    speed = engine.velocity.speed_at(t)
    if len(near):
        i = int(np.argmin(near))  # the first NaN, if there is one
        if near[i] < math.inf and engine.is_free(i, t, t + reach(task, near[i], speed, t)[1]):
            return AssignOutcome(OutcomeKind.ASSIGNED, _placement(engine, task, i, t), task.pto_reward)
    _eff, ttc = engine._reach(task, t, near, speed)
    free = _availability_mask(engine, ttc, t, exclude)
    if not free.any():
        return AssignOutcome(OutcomeKind.NO_SUITABLE_WORKER)
    i = int(np.argmin(np.where(free, near, np.inf)))
    if not free[i]:  # every free worker is infinitely far: the first of them
        i = int(np.argmax(free))
    return AssignOutcome(OutcomeKind.ASSIGNED, _placement(engine, task, i, t), task.pto_reward)


# ---------------------------------------------------------------------------
# offline batch assignment


def _tie_pick(seed: int, worker_id: int, tied_ids: list[int]) -> int:
    """Seeded, order-independent choice among tasks tied on (priority, total)."""
    ids = sorted(tied_ids)
    rnd = random.Random(f"{seed}|{worker_id}|{','.join(map(str, ids))}")
    return rnd.choice(ids)


def _pairs(score, bound: np.ndarray, times: np.ndarray):
    """A task's positive pairs (worker index, t0, t1, total), in (total desc, worker asc, time asc) order.

    [t0, t1) is the pair's work interval: its grid time, and that time plus
    the kernel's time to complete, added as ``total_score`` adds them.  The
    pairs come from a threshold search (Fagin, Lotem & Naor, PODS 2001)
    over per-worker bounds that need no distances: ``score(rows)`` scores
    the worker rows ``rows`` (an index array) over the grid ``times``, and
    ``bound[r]`` is at or above every positive total in row ``r``.  Each
    step scores the block of highest-bound unscored rows (``_ROW_BLOCK``
    rows at first, doubling each time) and stacks its totals and times to
    complete under the scored ones.  A pair is final once its total is
    strictly above ``top``, the highest bound among the unscored rows: a
    row whose bound equals the total may hold an equal total that wins its
    tie on worker id.  Final pairs are ordered and yielded a chunk at a
    time (``_PAIR_CHUNK`` at first, doubling each time): the chunk's
    highest totals and every pair tied with the lowest of them.  Every
    pair not yet yielded, scored or not, is then strictly below that cut,
    the ``ceiling``, so the stream needs no record of the pairs it took.  A
    row whose bound is not positive holds no positive total and is never
    scored.  ``bound`` is marked in place as rows are scored.
    """
    bound[~(bound > 0.0)] = -np.inf  # as scored rows are marked
    top, ceiling = float(bound.max()), math.inf
    block, chunk = _ROW_BLOCK, _PAIR_CHUNK
    scored = total = ttc = None  # the scored rows' worker indexes, and their totals and times to complete
    while True:
        if scored is not None:
            final = np.flatnonzero((total > max(top, 0.0)) & (total < ceiling))
            if len(final):
                if len(final) > chunk:
                    totals = total.ravel()[final]
                    ceiling = float(np.partition(totals, len(final) - chunk)[len(final) - chunk])
                    final = final[totals >= ceiling]
                    del totals
                else:
                    ceiling = float(total.ravel()[final].min())
                chunk *= 2
                pairs = _chunk_pairs(final, scored, total, ttc, times)
                del final  # a suspended generator keeps its locals: hold only the scored blocks
                yield from pairs
                continue
        if not top > 0.0:
            return
        n = min(block, len(bound))
        rows = np.argpartition(bound, len(bound) - n)[len(bound) - n :]
        rows = rows[bound[rows] > 0.0]
        bound[rows] = -np.inf
        top = float(bound.max())
        block *= 2
        g = score(rows)
        if scored is None:
            scored, total, ttc = rows, g.total, g.ttc
        else:
            scored = np.concatenate((scored, rows))
            total, ttc = np.concatenate((total, g.total)), np.concatenate((ttc, g.ttc))
        del g, rows


def _chunk_pairs(take: np.ndarray, scored: np.ndarray, total: np.ndarray, ttc: np.ndarray, times: np.ndarray):
    """The cells ``take`` (flat indexes into ``total``) as Python (worker, t0, t1, total) tuples in preference order.

    ``scored`` gives each row's worker index; t1 is added here, for the pairs taken only.
    """
    r, j = np.divmod(take, total.shape[1])
    w, totals = scored[r], total[r, j]
    order = np.lexsort((j, w, -totals))
    r, j = r[order], j[order]
    t0 = times[j]
    return zip(w[order].tolist(), t0.tolist(), (t0 + ttc[r, j]).tolist(), totals[order].tolist())


class _Candidates:
    """One batched task and the pair it proposes; each :meth:`propose` takes the next pair of :func:`_pairs`."""

    __slots__ = ("task", "priority", "score", "pairs", "worker", "t0", "t1", "total", "rank", "clash", "reason")

    def __init__(self, task: Task, priority: float, score, bound: np.ndarray, times: np.ndarray):
        self.task = task
        self.priority = priority
        self.score = score
        self.pairs = _pairs(score, bound, times)
        self.worker = -1  # worker index of the proposed pair; -1 until one is proposed
        self.t0 = self.t1 = self.total = 0.0  # its work interval [t0, t1) and total
        self.rank = ()  # (-priority, -total, task id): its place among the proposals its worker holds
        self.clash = False  # whether [t0, t1) overlaps one of the worker's bookings
        self.reason: OutcomeKind | None = None  # why the task is not placed, once that is known

    def propose(self) -> bool:
        """Make the next pair the proposal; False, with a reason, when no pair is left."""
        pair = next(self.pairs, None)
        if pair is None:
            if self.worker >= 0:  # every positive pair was lost to bookings or competition
                self.reason = OutcomeKind.NO_SUITABLE_WORKER
            else:
                g = self.score(slice(None))
                self.reason = _failure(g.ts > 0, g.avail, g.rw[:, None], g.tw[:, None])
            return False
        self.worker, self.t0, self.t1, self.total = pair
        self.rank = (-self.priority, -self.total, self.task.id)
        return True


_RANK = attrgetter("rank")


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
    preferred by higher total, then lower worker id, then earlier time;
    :func:`_pairs` finds them only as far as the rounds need them.
    Conflicts are settled in proposal rounds: every unplaced task proposes
    its best remaining pair; on each worker, proposals are honoured in
    order of task priority score, then total, then a seeded draw among
    exact ties, and a proposal whose work interval overlaps the worker's
    bookings or an already honoured interval is refused.  A refused task
    proposes its next pair and the rounds repeat until nothing is refused.
    A round re-decides only the workers that received a new proposal that
    does not overlap their bookings, over all the proposals they hold;
    every other worker would honour the same proposals again and refuse
    the new ones, so the rounds are the same as when every worker decides
    in each.  Scores are computed once against the state at ``now``
    and never revised within the batch.
    """
    if not tasks:
        return [], []
    late = [t.id for t in tasks if t.expiration <= now]
    if late:
        raise ValueError(f"tasks already expired at batch time {now}: {late}")
    tasks_sorted = sorted(tasks, key=lambda t: t.id)
    shared = sorted({a.id for a, b in zip(tasks_sorted, tasks_sorted[1:]) if a.id == b.id})
    if shared:  # the grid context keys its tasks by id
        raise ValueError(f"tasks share an id: {shared}")
    if not engine.workers:
        return [], [(t.id, OutcomeKind.NO_SUITABLE_WORKER) for t in tasks_sorted]

    times = grid.times(now, before=max(t.expiration for t in tasks_sorted))
    if not len(times):  # the grid ends before now; otherwise it starts at now, before every expiration
        return [], [(t.id, OutcomeKind.DEADLINE_INFEASIBLE) for t in tasks_sorted]
    ctx = engine.grid_context(tasks_sorted, times)
    cands = [
        _Candidates(
            task,
            task_priority_score(task, engine.owners[task.owner_id], engine.categories[task.category_id]),
            partial(engine.score_grid, task, ctx),
            bound,
            times,
        )
        for task, bound in zip(tasks_sorted, engine.row_bounds(tasks_sorted, ctx))
    ]

    # Honoured proposals persist across rounds.  A worker that only lost
    # refused proposals keeps the rest: they were pairwise disjoint and free
    # of bookings, and no booking changes in this call.  So a worker whose
    # new proposals all clash with its bookings refuses them without
    # deciding: a clash is never kept, and its held proposals are kept in
    # any order.  A worker that decides keeps its clashes in the tie runs,
    # whose draw depends on every tied task.
    held: dict[int, list[_Candidates]] = {}
    movers = cands
    while movers:
        movers = [c for c in movers if c.propose()]
        for c in movers:
            c.clash = not engine.is_free(c.worker, c.t0, c.t1)
        deciding = {c.worker for c in movers if not c.clash}

        refused: list[_Candidates] = []
        for c in movers:
            if c.worker in deciding:
                held.setdefault(c.worker, []).append(c)
            else:
                refused.append(c)
        for w in sorted(deciding):
            ranked = sorted(held[w], key=_RANK)
            kept = held[w] = []
            # The kept work intervals by (start, end): being pairwise disjoint, their ends ascend too.
            taken: list[tuple[float, float]] = []
            for _key, group in groupby(ranked, key=lambda c: (c.priority, c.total)):
                run = list(group)
                # A seeded draw decides exact (priority, total) ties.
                if len(run) > 1:
                    winner = _tie_pick(rng_seed, engine.workers[w].id, [c.task.id for c in run])
                    run.sort(key=lambda c: c.task.id != winner)  # the winner, then the rest in id order
                for c in run:
                    i = bisect_left(taken, (c.t1,))  # the intervals that start before c ends
                    if c.clash or (i and taken[i - 1][1] > c.t0):
                        refused.append(c)
                    else:
                        insort(taken, (c.t0, c.t1))
                        kept.append(c)
        movers = refused

    assignments: list[Assignment] = []
    unassigned: list[tuple[int, OutcomeKind]] = []
    for c in cands:
        if c.reason is None:
            # Scored on the live trust counters as at the batch time; its
            # booking is [t0, t1), as the kernel's reach is the scalar one.
            assignments.append(_placement(engine, c.task, c.worker, c.t0))
        else:
            unassigned.append((c.task.id, c.reason))
    return assignments, unassigned
