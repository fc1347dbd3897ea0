"""Task-to-worker assigners: offline batch, online greedy, and a nearest baseline.

The scalar formulas in ``scoring`` stay the readable reference; this module
contains a vectorised mirror of them (``ScoreEngine``) that evaluates whole
worker sets and dispatch-time grids at once.  The mirror reproduces the
scalar arithmetic operation-for-operation so both paths agree bit-for-bit.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .model import Task, TaskCategory, TaskOwner, TrustCounters, Worker, centroid, distance
from .schedule import WEEK_MINUTES, WeeklySchedule
from .scoring import (
    MIN_PRIORITY_EXPONENT_BASE,
    ScoreBreakdown,
    TaskExpiredError,
    VelocityProfile,
    reach,
    task_priority_score,
    total_score,
    trustworthy_score,
)

#: Worker rows scored in a task's first block of the threshold search; each later block doubles.
_ROW_BLOCK = 16
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


# ---------------------------------------------------------------------------
# vectorised scoring engine


@dataclass
class _Scores:
    """Score factors for one task over workers (1-D) or worker rows x times (2-D); ``rw`` and ``tw`` are per row."""

    total: np.ndarray
    ts: np.ndarray
    avail: np.ndarray
    ttc: np.ndarray
    travel_km: np.ndarray
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


class _PieceTable:
    """The piece values of many weekly schedules, one row each, for one exact lookup.

    A week minute's rank is its place among ``cuts``, the sorted unique
    inner piece ends of all rows (all but a schedule's last end, which is the
    week's end).  Every row's piece at a minute depends only on that rank, so
    :meth:`at` finds the rank with one search and serves its column from a
    memo bounded by ``_COLUMN_MEMO_BYTES`` (least recently used goes first).
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
        self._columns: OrderedDict[int, np.ndarray] = OrderedDict()
        self._capacity = max(1, _COLUMN_MEMO_BYTES // max(1, len(values) * len(schedules) * values.itemsize))

    def at(self, tm: float) -> np.ndarray:
        """The read-only memoised column of the week minute ``tm``'s rank, shaped (fields, rows)."""
        rank = bisect_right(self._cuts, tm)
        col = self._columns.get(rank)
        if col is not None:
            self._columns.move_to_end(rank)
            return col
        col = self._values[:, np.searchsorted(self._keys, self._row_keys + rank) + self._rows]
        col.flags.writeable = False
        self._columns[rank] = col
        if len(self._columns) > self._capacity:
            self._columns.popitem(last=False)
        return col


class ScoreEngine:
    """Vectorised evaluation of the total score for a fixed worker population.

    The engine is the registry a run assigns against: its workers, the task
    categories and owners by id, and the travel speed.  Each task's owner and
    category are looked up from the task's own ids.  Workers are kept sorted
    by id, so "first index" tie-breaks equal "lowest worker id".  The engine
    owns the run state: it copies each worker's trust counters and bookings
    once and never changes the input ``Worker`` records.  The simulator
    advances a counter through :meth:`refresh_trust` and changes bookings
    through :meth:`book` and :meth:`release`.  The records in ``workers``
    are the engine's own: each one's ``trust`` dict is its live counters,
    while its ``bookings`` stay the input's.  The live bookings are one list
    per worker that holds any, and :meth:`is_free` checks one worker's list.
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
        # Copies of the input records, each around its own copy of the trust
        # dict: that dict holds the run's live counters (see refresh_trust).
        self.workers: list[Worker] = [replace(w, trust=dict(w.trust)) for w in sorted(workers, key=lambda w: w.id)]
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
        trust = self.workers[i].trust
        c = trust.get(category_id) or TrustCounters()
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
        trust[category_id] = c
        raw = trustworthy_score(c)
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
            raws = [trustworthy_score(w.trust_for(task.category_id)) for w in self.workers]
            vec = cached[exponent] = np.array([r**exponent for r in raws])
        return vec

    # -- time lookups ----------------------------------------------------

    def _places(self, t: float) -> np.ndarray:
        """Every worker's expected centroid (x, y) at ``t``: the read-only memoised column, shaped (2, workers)."""
        return self._pattern.at(t % WEEK_MINUTES)

    def _cumulative(self, t: float) -> np.ndarray:
        """Each status class's integral from 0 to ``t``: ``WeeklySchedule.cumulative`` on the memoised column."""
        nw = math.floor(t / WEEK_MINUTES)
        tm = t - nw * WEEK_MINUTES
        prefix, value, start = self._status.at(tm)
        return nw * self._st_week + prefix + value * (tm - start)

    def grid_context(self, times: np.ndarray) -> GridContext:
        """Positions, cumulative status and speed at shared batch grid times, one memo column per time."""
        ts = times.tolist()
        places = np.stack([self._places(t) for t in ts])
        cum = np.stack([self._cumulative(t) for t in ts])
        speed = np.array([self.velocity.speed_at(t) for t in ts], dtype=float)
        return GridContext(times=times, x=places[:, 0].T, y=places[:, 1].T, cum_status=cum.T, speed=speed)

    # -- scoring ----------------------------------------------------------

    def _distance(self, task: Task, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The distance from each position to the task's centroid, in a new array."""
        c = centroid(task.region)
        dist = np.subtract(c.x, x)
        dy = np.subtract(c.y, y)
        np.multiply(dist, dist, out=dist)
        np.multiply(dy, dy, out=dy)
        return np.sqrt(np.add(dist, dy, out=dist), out=dist)

    def _reach(self, task: Task, times: np.ndarray | float, x: np.ndarray, y: np.ndarray, speed: np.ndarray | float):
        """Distance, effective start and time to complete from positions at dispatch times.

        Steps write in place into this call's own arrays; the operations and
        their order are those of the scalar formulas (``scoring.reach``).
        """
        dist = self._distance(task, x, y)
        eff = np.divide(dist, speed)  # travel minutes, then the effective start
        np.multiply(eff, 60.0, out=eff)
        np.add(times, eff, out=eff)
        if task.start_earliest is not None:
            np.maximum(eff, task.start_earliest, out=eff)
        ttc = np.add(eff, task.duration)
        return dist, eff, np.subtract(ttc, times, out=ttc)

    def _factors(self, task: Task, rows=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The task's reward and trust for the worker ``rows``, and each status class's integral to its expiration.

        None depends on the dispatch time.  Reward and trust are elementwise
        over workers, so a subset of rows has the same bits as those rows of
        the whole.
        """
        margin = task.pto_reward - self._demand[task.category_id][rows]
        rw = np.where(margin > 0, margin / task.pto_reward, 0.0)
        return rw, self._trust_vector(task)[rows], self._cumulative(task.expiration)

    def _score(self, task: Task, ctx: GridContext, k: int, rows=slice(None)) -> _Scores:
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
        rw, tw, cum_exp = self._factors(task, rows)
        # Availability per status class, then gathered to the rows.
        avail = np.subtract(cum_exp[:, None], ctx.cum_status[:, :k])
        np.divide(avail, left, out=avail)
        avail = avail[self._class[rows]]
        total = np.multiply(ts, avail)
        np.multiply(total, rw[:, None], out=total)
        np.multiply(total, tw[:, None], out=total)
        return _Scores(total=total, ts=ts, avail=avail, ttc=ttc, travel_km=dist, rw=rw, tw=tw)

    # The batch's name for the kernel, which the benchmark traces; score_at calls _score.
    score_grid = _score

    def score_at(self, task: Task, t: float) -> _Scores:
        """Score every worker for ``task`` dispatched at the single time ``t``."""
        (x, y), speed = self._places(t)[:, :, None], np.array([self.velocity.speed_at(t)])
        s = self._score(task, GridContext(np.array([t]), x, y, self._cumulative(t)[:, None], speed), 1)
        return replace(s, **{f: getattr(s, f)[:, 0] for f in ("total", "ts", "avail", "ttc", "travel_km")})

    def row_bounds(self, task: Task, ctx: GridContext, k: int) -> np.ndarray:
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

        Every worker of a status class has its class's availability, so the
        negative test and the maximum over times are taken per class, in
        O(classes x times), and gathered to the workers: each worker's
        bound is the one its own column would give, bit for bit.
        """
        rw, tw, cum_exp = self._factors(task)
        times = ctx.times[:k]
        exp = task.expiration
        left = exp - times
        eff = times if task.start_earliest is None else np.maximum(times, task.start_earliest)
        ts = ((exp - ((eff + task.duration) - times)) - times) / left
        # (times, classes), so that the reductions run over contiguous rows.
        avail = np.subtract(cum_exp, ctx.cum_status.T[:k])
        np.divide(avail, left[:, None], out=avail)
        negative = avail.min(axis=0) < 0.0
        np.multiply(ts[:, None], avail, out=avail)
        bound = (avail.max(axis=0)[self._class] * rw) * tw
        bound[negative[self._class]] = np.inf
        return bound


def _placement(engine: ScoreEngine, task: Task, i: int, t: float, ttc: float, travel_km: float) -> Assignment:
    """Worker index ``i`` placed on ``task`` at ``t``, its factors from the scalar ``total_score``.

    The kernel's factors equal it bit for bit.  The record in
    ``engine.workers`` holds the live trust counters; the score reads no bookings.
    """
    worker = engine.workers[i]
    owner, category = engine.owners[task.owner_id], engine.categories[task.category_id]
    return Assignment(
        task_id=task.id,
        worker_id=worker.id,
        dispatch_time=t,
        breakdown=total_score(task, worker, owner, category, t, engine.velocity),
        ttc_min=ttc,
        travel_km=travel_km,
    )


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
            assignment = _placement(engine, eff_task, i, t, float(s.ttc[i]), float(s.travel_km[i]))
            return AssignOutcome(OutcomeKind.ASSIGNED, assignment, eff_task.pto_reward)
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

    Deliberately ignores availability, reward, and trust; only the winner
    is scored, for reporting.  Distance ties go to the lowest worker id.
    """
    found = _nearest_free(task, engine, t, frozenset(exclude_workers))
    if found is None:
        return AssignOutcome(OutcomeKind.NO_SUITABLE_WORKER)
    i, ttc, dist = found
    return AssignOutcome(OutcomeKind.ASSIGNED, _placement(engine, task, i, t, ttc, dist), task.pto_reward)


def _nearest_free(task: Task, engine: ScoreEngine, t: float, exclude: frozenset[int]):
    """The nearest free worker's index, time to complete and distance; None when no worker is free.

    Only the distances are computed over every worker at first.  The
    nearest worker that is not excluded wins if its own bookings leave it
    free: masking busy workers out only raises other distances, so it is
    also the first minimum of the masked distances.  When it is taken, or
    no distance is finite, the full booking mask decides.
    """
    (x, y), speed = engine._places(t), engine.velocity.speed_at(t)
    near = engine._distance(task, x, y)
    for wid in exclude:
        i = engine.index_of.get(wid)
        if i is not None:
            near[i] = np.inf
    if len(near):
        i = int(np.argmin(near))  # the first NaN, if there is one
        d = float(near[i])
        if d < math.inf:
            ttc = reach(task, d, speed, t)[1]
            if engine.is_free(i, t, t + ttc):
                return i, ttc, d
    dist, _eff, ttc = engine._reach(task, t, x, y, speed)
    free = _availability_mask(engine, ttc, t, exclude)
    if not free.any():
        return None
    i = int(np.argmin(np.where(free, dist, np.inf)))
    if not free[i]:  # every free worker is infinitely far: the first of them
        i = int(np.argmax(free))
    return i, float(ttc[i]), float(dist[i])


# ---------------------------------------------------------------------------
# offline batch assignment


def _tie_pick(seed: int, worker_id: int, tied_ids: list[int]) -> int:
    """Seeded, order-independent choice among tasks tied on (priority, total)."""
    ids = sorted(tied_ids)
    rnd = random.Random(f"{seed}|{worker_id}|{','.join(map(str, ids))}")
    return rnd.choice(ids)


def _pairs(score, bound: np.ndarray, times: np.ndarray):
    """A task's positive pairs (worker index, t0, ttc, total), in (total desc, worker asc, time asc) order.

    The pairs come from a threshold search (Fagin, Lotem & Naor, PODS 2001)
    over per-worker bounds that need no distances: ``score(rows)`` scores the
    worker rows ``rows`` (an index array) over the grid ``times``, and
    ``bound[r]`` is at or above every positive total in row ``r``.  Each
    step scores the block of highest-bound unscored rows (``_ROW_BLOCK`` rows
    at first, doubling each time) and merges their positive pairs with the
    pending ones.  A pair is final once its total is strictly above ``top``,
    the highest bound among the unscored rows: a row whose bound equals the
    total may hold an equal total that wins its tie on worker id.  The final
    pairs are yielded and dropped, so every later pair sorts after them.  A
    row whose bound is not positive holds no positive total and is never
    scored.  ``bound`` is marked in place as rows are scored.
    """
    bound[~(bound > 0.0)] = -np.inf  # as scored rows are marked
    top = float(bound.max())
    block = _ROW_BLOCK
    # The pending pairs, in preference order.
    w, j, totals, ttc = np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0), np.empty(0)
    while top > 0.0:
        n = min(block, len(bound))
        rows = np.argpartition(bound, len(bound) - n)[len(bound) - n :]
        rows = rows[bound[rows] > 0.0]
        bound[rows] = -np.inf
        top = float(bound.max())
        block *= 2
        g = score(rows)
        r, c = np.nonzero(g.total > 0.0)
        w = np.concatenate((w, rows[r].astype(np.int32)))
        j = np.concatenate((j, c.astype(np.int32)))
        totals = np.concatenate((totals, g.total[r, c]))
        ttc = np.concatenate((ttc, g.ttc[r, c]))
        order = np.lexsort((j, w, -totals))
        w, j, totals, ttc = w[order], j[order], totals[order], ttc[order]
        del g, r, c, order  # a suspended generator keeps its locals: hold only the pending pairs
        final = int(np.count_nonzero(totals > top))
        # Memoryviews make each pair Python numbers only when it is taken.
        yield from zip(*map(memoryview, (w[:final], times[j[:final]], ttc[:final], totals[:final])))
        w, j, totals, ttc = w[final:], j[final:], totals[final:], ttc[final:]


class _Candidates:
    """One batched task and the pair it proposes; each :meth:`propose` takes the next pair of :func:`_pairs`."""

    __slots__ = ("task", "priority", "score", "pairs", "worker", "t0", "ttc", "t1", "total", "clash", "reason")

    def __init__(self, task: Task, priority: float, score, bound: np.ndarray, times: np.ndarray):
        self.task = task
        self.priority = priority
        self.score = score
        self.pairs = _pairs(score, bound, times)
        self.worker = -1  # worker index of the proposed pair; -1 until one is proposed
        self.t0 = self.ttc = self.t1 = self.total = 0.0  # its work interval [t0, t1 = t0 + ttc) and total
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
        self.worker, self.t0, self.ttc, self.total = pair
        self.t1 = self.t0 + self.ttc
        return True

    def assignment(self, engine: ScoreEngine) -> Assignment:
        """The proposal as an assignment, scored on the live trust counters as at the batch time."""
        task, i, t = self.task, self.worker, self.t0
        travel_km = distance(task.region, engine.workers[i].pattern.value_at(t))
        return _placement(engine, task, i, t, self.ttc, travel_km)


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
    if not engine.workers:
        return [], [(t.id, OutcomeKind.NO_SUITABLE_WORKER) for t in tasks_sorted]

    times = grid.times(now, before=max(t.expiration for t in tasks_sorted))
    if not len(times):  # the grid ends before now; otherwise it starts at now, before every expiration
        return [], [(t.id, OutcomeKind.DEADLINE_INFEASIBLE) for t in tasks_sorted]
    ctx = engine.grid_context(times)

    cands: list[_Candidates] = []
    for task in tasks_sorted:
        k = int(np.searchsorted(times, task.expiration, side="left"))
        cands.append(
            _Candidates(
                task,
                task_priority_score(task, engine.owners[task.owner_id], engine.categories[task.category_id]),
                partial(engine.score_grid, task, ctx, k),
                engine.row_bounds(task, ctx, k),
                times,
            )
        )

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
                        refused.append(c)
                    else:
                        kept.append(c)
        movers = refused

    assignments: list[Assignment] = []
    unassigned: list[tuple[int, OutcomeKind]] = []
    for c in cands:
        if c.reason is None:
            assignments.append(c.assignment(engine))
        else:
            unassigned.append((c.task.id, c.reason))
    return assignments, unassigned
