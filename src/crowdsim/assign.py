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
from typing import Iterable, Sequence

import numpy as np

from .model import Task, TaskCategory, TaskOwner, Worker, centroid
from .schedule import WEEK_MINUTES
from .scoring import (
    MIN_PRIORITY_EXPONENT_BASE,
    ScoreBreakdown,
    TaskExpiredError,
    TrustWeights,
    VelocityProfile,
    task_priority_score,
    trustworthy_score,
)

#: Candidate pairs materialised per task before falling back to a full sort.
_CANDIDATE_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Dispatch-time lattice used by the batch assigner."""

    step_min: float = 15.0
    horizon_min: float = WEEK_MINUTES

    def __post_init__(self) -> None:
        if self.step_min <= 0:
            raise ValueError(f"grid step must be > 0, got {self.step_min}")
        if self.horizon_min < 0:
            raise ValueError(f"grid horizon must be >= 0, got {self.horizon_min}")

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
    best_feasible_worker_id: int | None = None
    effective_reward: float | None = None

    @classmethod
    def assigned_to(cls, assignment: Assignment, effective_reward: float) -> "AssignOutcome":
        return cls(OutcomeKind.ASSIGNED, assignment=assignment, effective_reward=effective_reward)

    @classmethod
    def failure(cls, kind: OutcomeKind, best_feasible_worker_id: int | None = None) -> "AssignOutcome":
        return cls(kind, best_feasible_worker_id=best_feasible_worker_id)


# ---------------------------------------------------------------------------
# vectorised scoring engine


@dataclass
class _Scores:
    """Score factors for one task over workers (1-D) or workers x times (2-D)."""

    total: np.ndarray
    ts: np.ndarray
    avail: np.ndarray
    ttc: np.ndarray
    travel_km: np.ndarray
    rw: np.ndarray  # per worker
    tw: np.ndarray  # per worker


@dataclass
class GridContext:
    """Worker positions/cumulative status precomputed at shared grid times."""

    times: np.ndarray
    x: np.ndarray  # (workers, times)
    y: np.ndarray
    cum_status: np.ndarray
    speed: np.ndarray  # (times,)


class ScoreEngine:
    """Vectorised evaluation of the total score for a fixed worker population.

    Workers are kept sorted by id, so "first index" tie-breaks equal
    "lowest worker id".  Trust factors are cached per category and must be
    refreshed through :meth:`refresh_trust` whenever counters change.
    The engine also owns the run's bookings: it copies ``Worker.bookings``
    once, and the simulator changes them through :meth:`book` and
    :meth:`release`.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        categories: Sequence[TaskCategory],
        velocity: VelocityProfile,
        weights: TrustWeights,
    ):
        self.workers: list[Worker] = sorted(workers, key=lambda w: w.id)
        self.index_of: dict[int, int] = {w.id: i for i, w in enumerate(self.workers)}
        self.worker_ids: np.ndarray = np.array([w.id for w in self.workers], dtype=int)
        self.velocity = velocity
        self.weights = weights
        n = len(self.workers)

        # Ragged per-worker piece arrays (shared with the schedule objects).
        self._pat: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._status: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]] = []
        for w in self.workers:
            cents = [centroid(v) for v in w.pattern.piece_values]
            self._pat.append(
                (
                    _clamped_ends(w.pattern.piece_ends),
                    np.array([c.x for c in cents], dtype=float),
                    np.array([c.y for c in cents], dtype=float),
                )
            )
            st = w.status
            if st.piece_prefix is None:
                raise TypeError(f"worker {w.id} status schedule is not numeric")
            self._status.append(
                (
                    _clamped_ends(st.piece_ends),
                    st.piece_starts,
                    np.array([float(v) for v in st.piece_values]),
                    st.piece_prefix,
                    float(st.week_integral),
                )
            )

        # Padded matrices for single-time lookups across all workers at once.
        def _padded(rows: list[np.ndarray], fill: float) -> np.ndarray:
            width = max((len(r) for r in rows), default=1)
            out = np.full((n, width), fill, dtype=float)
            for i, r in enumerate(rows):
                out[i, : len(r)] = r
            return out

        self._pat_ends_m = _padded([p[0] for p in self._pat], np.inf)
        self._pat_cx_m = _padded([p[1] for p in self._pat], 0.0)
        self._pat_cy_m = _padded([p[2] for p in self._pat], 0.0)
        self._st_ends_m = _padded([s[0] for s in self._status], np.inf)
        self._st_starts_m = _padded([s[1] for s in self._status], 0.0)
        self._st_vals_m = _padded([s[2] for s in self._status], 0.0)
        self._st_prefix_m = _padded([s[3] for s in self._status], 0.0)
        self._st_week = np.array([s[4] for s in self._status], dtype=float)

        self._categories: dict[int, TaskCategory] = {c.id: c for c in categories}
        self._demand: dict[int, np.ndarray] = {
            c.id: np.array([w.reward_demand.get(c.id, c.cat_reward) for w in self.workers])
            for c in categories
        }
        # Raw trust per category, kept both as Python floats (for bit-exact
        # scalar powers) and as the basis of per-exponent cached vectors.
        self._trust_raw: dict[int, list[float]] = {
            c.id: [trustworthy_score(w.trust_for(c.id), weights) for w in self.workers]
            for c in categories
        }
        self._trust_pow: dict[tuple[int, float], np.ndarray] = {}

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

    def refresh_trust(self, worker_id: int, category_id: int) -> None:
        """Re-read one worker's trust counters after the simulator changed them."""
        i = self.index_of[worker_id]
        raw = trustworthy_score(self.workers[i].trust_for(category_id), self.weights)
        self._trust_raw[category_id][i] = raw
        for (cat, exponent), vec in self._trust_pow.items():
            if cat == category_id:
                vec[i] = raw**exponent

    def _trust_vector(self, category_id: int, owner: TaskOwner) -> np.ndarray:
        base = owner.pto_priority
        if base < MIN_PRIORITY_EXPONENT_BASE:
            base = MIN_PRIORITY_EXPONENT_BASE
        exponent = 1.0 / base
        key = (category_id, exponent)
        vec = self._trust_pow.get(key)
        if vec is None:
            vec = np.array([r**exponent for r in self._trust_raw[category_id]])
            self._trust_pow[key] = vec
        return vec

    # -- time lookups ----------------------------------------------------

    def positions_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Every worker's expected centroid at a single time."""
        tm = t % WEEK_MINUTES
        idx = (self._pat_ends_m <= tm).sum(axis=1)[:, None]
        x = np.take_along_axis(self._pat_cx_m, idx, axis=1)[:, 0]
        y = np.take_along_axis(self._pat_cy_m, idx, axis=1)[:, 0]
        return x, y

    def cumulative_status_at(self, t: float) -> np.ndarray:
        """Every worker's cumulative status integral from 0 to a single time."""
        nw = math.floor(t / WEEK_MINUTES)
        tm = t - nw * WEEK_MINUTES
        idx = (self._st_ends_m <= tm).sum(axis=1)[:, None]
        starts = np.take_along_axis(self._st_starts_m, idx, axis=1)[:, 0]
        vals = np.take_along_axis(self._st_vals_m, idx, axis=1)[:, 0]
        prefix = np.take_along_axis(self._st_prefix_m, idx, axis=1)[:, 0]
        return nw * self._st_week + prefix + vals * (tm - starts)

    def grid_context(self, times: np.ndarray) -> GridContext:
        """Precompute positions and cumulative status at shared grid times."""
        n = len(self.workers)
        t_count = len(times)
        x = np.empty((n, t_count))
        y = np.empty((n, t_count))
        cum = np.empty((n, t_count))
        tm_val = np.mod(times, WEEK_MINUTES)
        nw = np.floor(times / WEEK_MINUTES)
        tm_cum = times - nw * WEEK_MINUTES
        for i in range(n):
            ends, cx, cy = self._pat[i]
            idx = np.searchsorted(ends, tm_val, side="right")
            x[i] = cx[idx]
            y[i] = cy[idx]
            ends_s, starts_s, vals_s, prefix_s, week = self._status[i]
            idx = np.searchsorted(ends_s, tm_cum, side="right")
            cum[i] = nw * week + prefix_s[idx] + vals_s[idx] * (tm_cum - starts_s[idx])
        vsched = self.velocity.schedule
        vidx = np.searchsorted(_clamped_ends(vsched.piece_ends), tm_val, side="right")
        vvals = np.array([float(v) for v in vsched.piece_values])[vidx]
        speed = np.maximum(vvals, self.velocity.floor_kmh)
        return GridContext(times=times, x=x, y=y, cum_status=cum, speed=speed)

    # -- scoring ----------------------------------------------------------

    def _reward_trust(self, task: Task, owner: TaskOwner, category: TaskCategory):
        demand = self._demand[category.id]
        margin = task.pto_reward - demand
        rw = np.where(margin > 0, margin / task.pto_reward, 0.0)
        tw = self._trust_vector(category.id, owner)
        return rw, tw

    def score_at(self, task: Task, owner: TaskOwner, category: TaskCategory, t: float) -> _Scores:
        """Score every worker for ``task`` dispatched at the single time ``t``."""
        c = centroid(task.region)
        x, y = self.positions_at(t)
        dx = c.x - x
        dy = c.y - y
        dist = np.sqrt(dx * dx + dy * dy)
        speed = self.velocity.speed_at(t)
        travel = (dist / speed) * 60.0
        eff = t + travel
        if task.start_earliest is not None:
            eff = np.maximum(eff, task.start_earliest)
        ttc = (eff + task.duration) - t
        exp = task.expiration
        ts = ((exp - ttc) - t) / (exp - t)
        if task.start_latest is not None:
            ts = np.where(eff > task.start_latest, -1.0, ts)
        cum_t = self.cumulative_status_at(t)
        cum_exp = self.cumulative_status_at(exp)
        avail = (cum_exp - cum_t) / (exp - t)
        rw, tw = self._reward_trust(task, owner, category)
        total = ((ts * avail) * rw) * tw
        return _Scores(total=total, ts=ts, avail=avail, ttc=ttc, travel_km=dist, rw=rw, tw=tw)

    def score_grid(
        self,
        task: Task,
        owner: TaskOwner,
        category: TaskCategory,
        ctx: GridContext,
        k: int,
    ) -> _Scores:
        """Score every worker for ``task`` over the first ``k`` grid times."""
        times = ctx.times[:k][None, :]
        c = centroid(task.region)
        dx = c.x - ctx.x[:, :k]
        dy = c.y - ctx.y[:, :k]
        dist = np.sqrt(dx * dx + dy * dy)
        travel = (dist / ctx.speed[:k][None, :]) * 60.0
        eff = times + travel
        if task.start_earliest is not None:
            eff = np.maximum(eff, task.start_earliest)
        ttc = (eff + task.duration) - times
        exp = task.expiration
        ts = ((exp - ttc) - times) / (exp - times)
        if task.start_latest is not None:
            ts = np.where(eff > task.start_latest, -1.0, ts)
        cum_exp = self.cumulative_status_at(exp)
        avail = (cum_exp[:, None] - ctx.cum_status[:, :k]) / (exp - times)
        rw, tw = self._reward_trust(task, owner, category)
        total = ((ts * avail) * rw[:, None]) * tw[:, None]
        return _Scores(total=total, ts=ts, avail=avail, ttc=ttc, travel_km=dist, rw=rw, tw=tw)


def _clamped_ends(ends: np.ndarray) -> np.ndarray:
    """Piece ends with the last one at +inf.

    ``t % WEEK_MINUTES`` can round up to ``WEEK_MINUTES`` for ``t`` just
    below zero; an open last piece keeps such times in it, which is the
    clamp ``WeeklySchedule`` applies to the piece index.
    """
    out = np.array(ends, dtype=float)
    out[-1] = np.inf
    return out


def _breakdown_1d(s: _Scores, i: int) -> ScoreBreakdown:
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
# queue ordering


def queue_order(
    tasks: Sequence[Task],
    owners: dict[int, TaskOwner],
    categories: dict[int, TaskCategory],
) -> list[Task]:
    """Pending-queue order: priority score desc, then submit time, then id."""

    def key(task: Task):
        priority = task_priority_score(task, owners[task.owner_id], categories[task.category_id])
        return (-priority, task.submit_time, task.id)

    return sorted(tasks, key=key)


# ---------------------------------------------------------------------------
# online greedy assignment


def online_assign(
    task: Task,
    workers: Sequence[Worker],
    owner: TaskOwner,
    category: TaskCategory,
    t: float,
    velocity: VelocityProfile,
    weights: TrustWeights,
    *,
    allow_reward_raise: bool = True,
    already_raised: float = 0.0,
    exclude_workers: Iterable[int] = (),
    engine: ScoreEngine | None = None,
) -> AssignOutcome:
    """Assign one task right now to the worker with the best positive total.

    Workers whose bookings overlap the candidate work interval are treated
    as unavailable.  When every time-feasible and available worker fails
    only on the reward factor and ``allow_reward_raise`` is set, the owner's
    raise policy bumps the offered reward by ``raise_increment`` (up to
    ``max_reward_raise``, less ``already_raised``) and retries.  Ties on the
    total are broken toward the lowest worker id.
    """
    if not (math.isfinite(task.pto_reward) and math.isfinite(already_raised)):
        # A NaN raise total never reaches max_reward_raise: the loop would spin.
        raise ValueError(
            f"task {task.id}: reward {task.pto_reward} and already_raised {already_raised} must be finite"
        )
    if t >= task.expiration:
        raise TaskExpiredError(f"task {task.id} expired at {task.expiration}, assignment at t={t}")
    if engine is None:
        engine = ScoreEngine(workers, [category], velocity, weights)
    exclude = frozenset(exclude_workers)
    raised = already_raised
    eff_task = task
    while True:
        s = engine.score_at(eff_task, owner, category, t)
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
                breakdown=_breakdown_1d(s, i),
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
        if allow_reward_raise:
            increment = min(owner.raise_increment, owner.max_reward_raise - raised)
            if increment > 0:
                raised += increment
                eff_task = replace(eff_task, pto_reward=eff_task.pto_reward + increment)
                continue
        partial = np.where(reward_only, (s.ts * s.avail) * s.tw, -np.inf)
        return AssignOutcome.failure(
            OutcomeKind.REWARD_INSUFFICIENT,
            best_feasible_worker_id=engine.workers[int(np.argmax(partial))].id,
        )


# ---------------------------------------------------------------------------
# nearest-distance baseline


def baseline_nearest(
    task: Task,
    workers: Sequence[Worker],
    t: float,
    owner: TaskOwner,
    category: TaskCategory,
    velocity: VelocityProfile,
    weights: TrustWeights,
    *,
    exclude_workers: Iterable[int] = (),
    engine: ScoreEngine | None = None,
) -> AssignOutcome:
    """Assign to the nearest unoccupied worker by centroid distance.

    Deliberately ignores availability, reward, and trust; the score
    breakdown is attached for reporting only.  Distance ties go to the
    lowest worker id.
    """
    if engine is None:
        engine = ScoreEngine(workers, [category], velocity, weights)
    s = engine.score_at(task, owner, category, t)
    mask = _availability_mask(engine, s.ttc, t, exclude_workers)
    if not mask.any():
        return AssignOutcome.failure(OutcomeKind.NO_SUITABLE_WORKER)
    masked_dist = np.where(mask, s.travel_km, np.inf)
    i = int(np.argmin(masked_dist))
    assignment = Assignment(
        task_id=task.id,
        worker_id=engine.workers[i].id,
        dispatch_time=t,
        breakdown=_breakdown_1d(s, i),
        ttc_min=float(s.ttc[i]),
        travel_km=float(s.travel_km[i]),
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
    """Per-task candidate pairs sorted by (total desc, worker id asc, time asc)."""

    __slots__ = ("task", "priority", "reason", "n_positive", "pointer", "cols", "_rebuild")

    def __init__(self, task: Task, priority: float):
        self.task = task
        self.priority = priority
        self.reason: OutcomeKind | None = None
        self.n_positive = 0
        self.pointer = 0
        self.cols: dict[str, np.ndarray] = {}
        self._rebuild = None  # callable materialising the full sorted table

    def load(self, g: _Scores, times: np.ndarray, cap: int | None, rebuild) -> None:
        total = g.total.ravel()
        pos = np.flatnonzero(total > 0.0)
        self.n_positive = len(pos)
        if self.n_positive == 0:
            ts_ok = g.ts > 0
            if not ts_ok.any():
                self.reason = OutcomeKind.DEADLINE_INFEASIBLE
            elif (ts_ok & (g.avail > 0) & (g.rw[:, None] == 0) & (g.tw[:, None] > 0)).any():
                self.reason = OutcomeKind.REWARD_INSUFFICIENT
            else:
                self.reason = OutcomeKind.NO_SUITABLE_WORKER
            return
        k = g.ts.shape[1]
        if cap is not None and self.n_positive > cap:
            # Keep everything at or above the cap-th largest total so that
            # after the lexsort the kept rows are the exact prefix of the
            # full preference order, ties included.
            cutoff = np.partition(total[pos], -cap)[-cap]
            sel = pos[total[pos] >= cutoff]
            self._rebuild = rebuild
        else:
            sel = pos
        w_idx = sel // k
        t_idx = sel % k
        order = np.lexsort((t_idx, w_idx, -total[sel]))
        if cap is not None and len(order) > cap:
            order = order[:cap]
        w_idx, t_idx, sel = w_idx[order], t_idx[order], sel[order]
        self.cols = {
            "w": w_idx,
            "time": times[t_idx],
            "total": total[sel],
            "ts": g.ts.ravel()[sel],
            "avail": g.avail.ravel()[sel],
            "ttc": g.ttc.ravel()[sel],
            "travel": g.travel_km.ravel()[sel],
            "rw": g.rw[w_idx],
            "tw": g.tw[w_idx],
        }

    def current(self):
        if self.pointer >= len(self.cols.get("w", ())):
            if self.pointer < self.n_positive and self._rebuild is not None:
                rebuild = self._rebuild
                self._rebuild = None
                rebuild(self)  # re-materialise without the cap
            if self.pointer >= len(self.cols.get("w", ())):
                return None
        i = self.pointer
        return (
            int(self.cols["w"][i]),
            float(self.cols["time"][i]),
            float(self.cols["total"][i]),
            float(self.cols["ttc"][i]),
            i,
        )

    def breakdown(self, i: int) -> ScoreBreakdown:
        ts = float(self.cols["ts"][i])
        return ScoreBreakdown(
            time_score=ts,
            availability=float(self.cols["avail"][i]),
            reward=float(self.cols["rw"][i]),
            trust_weighted=float(self.cols["tw"][i]),
            total=float(self.cols["total"][i]),
            time_feasible=ts > 0.0,
        )


def offline_assign(
    tasks: Sequence[Task],
    workers: Sequence[Worker],
    owners: dict[int, TaskOwner],
    categories: dict[int, TaskCategory],
    now: float,
    grid: TimeGrid,
    velocity: VelocityProfile,
    weights: TrustWeights,
    rng_seed: int = 0,
    *,
    engine: ScoreEngine | None = None,
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
    Scores are computed once against the state at ``now`` and never revised
    within the batch.
    """
    if not tasks:
        return [], []
    late = [t.id for t in tasks if t.expiration <= now]
    if late:
        raise ValueError(f"tasks already expired at batch time {now}: {late}")
    tasks_sorted = sorted(tasks, key=lambda t: t.id)
    if not workers:
        return [], [(t.id, OutcomeKind.NO_SUITABLE_WORKER) for t in tasks_sorted]
    if engine is None:
        engine = ScoreEngine(workers, list(categories.values()), velocity, weights)

    max_exp = max(t.expiration for t in tasks_sorted)
    times = grid.times(now, before=max_exp)
    ctx = engine.grid_context(times) if len(times) else None

    cands: dict[int, _Candidates] = {}
    for task in tasks_sorted:
        owner = owners[task.owner_id]
        category = categories[task.category_id]
        cand = _Candidates(task, task_priority_score(task, owner, category))
        k = int(np.searchsorted(times, task.expiration, side="left")) if ctx is not None else 0
        if k == 0:
            cand.reason = OutcomeKind.DEADLINE_INFEASIBLE
        else:

            def rebuild(c: _Candidates, task=task, owner=owner, category=category, k=k):
                c.load(engine.score_grid(task, owner, category, ctx, k), ctx.times, None, None)

            cand.load(engine.score_grid(task, owner, category, ctx, k), ctx.times, _CANDIDATE_BLOCK, rebuild)
        cands[task.id] = cand

    active = [t.id for t in tasks_sorted if cands[t.id].n_positive > 0]
    exhausted: list[int] = []
    while True:
        proposals: dict[int, tuple[int, float, float, float, int]] = {}
        still_active = []
        for tid in active:
            cur = cands[tid].current()
            if cur is None:
                exhausted.append(tid)
            else:
                proposals[tid] = cur
                still_active.append(tid)
        active = still_active

        # Every proposal of the round against the live bookings at once.
        props = np.array(list(proposals.values()), dtype=float).reshape(-1, 5)
        t0s = props[:, 1]
        booked = engine.booked(t0s, t0s + props[:, 3], props[:, 0].astype(np.intp))
        clashes = dict(zip(proposals, booked.tolist()))

        by_worker: dict[int, list[int]] = {}
        for tid, (w, _t, _total, _ttc, _i) in proposals.items():
            by_worker.setdefault(w, []).append(tid)

        rejected: list[int] = []
        for w in sorted(by_worker):
            tids = by_worker[w]
            tids.sort(key=lambda tid: (-cands[tid].priority, -proposals[tid][2], tid))
            # A seeded draw decides exact (priority, total) ties.
            ordered: list[int] = []
            run_start = 0
            while run_start < len(tids):
                run_end = run_start + 1
                first = tids[run_start]
                key0 = (cands[first].priority, proposals[first][2])
                while run_end < len(tids):
                    nxt = tids[run_end]
                    if (cands[nxt].priority, proposals[nxt][2]) != key0:
                        break
                    run_end += 1
                run = tids[run_start:run_end]
                if len(run) > 1:
                    winner = _tie_pick(rng_seed, engine.workers[w].id, run)
                    run = [winner] + [tid for tid in run if tid != winner]
                ordered.extend(run)
                run_start = run_end
            taken: list[tuple[float, float]] = []
            for tid in ordered:
                _w, t0, _total, ttc, _i = proposals[tid]
                t1 = t0 + ttc
                clash = clashes[tid]
                if not clash:
                    for s, e in taken:
                        if s < t1 and t0 < e:
                            clash = True
                            break
                if clash:
                    rejected.append(tid)
                else:
                    taken.append((t0, t1))
        if not rejected:
            break
        for tid in rejected:
            cands[tid].pointer += 1

    assignments: list[Assignment] = []
    unassigned: list[tuple[int, OutcomeKind]] = []
    placed = {tid: proposals[tid] for tid in active}
    for task in tasks_sorted:
        cand = cands[task.id]
        if task.id in placed:
            w, t0, _total, ttc, i = placed[task.id]
            assignments.append(
                Assignment(
                    task_id=task.id,
                    worker_id=engine.workers[w].id,
                    dispatch_time=t0,
                    breakdown=cand.breakdown(i),
                    ttc_min=ttc,
                    travel_km=float(cand.cols["travel"][i]),
                )
            )
        elif cand.reason is not None:
            unassigned.append((task.id, cand.reason))
        else:
            # Had positive pairs but lost all of them to bookings/competition.
            unassigned.append((task.id, OutcomeKind.NO_SUITABLE_WORKER))
    return assignments, unassigned
