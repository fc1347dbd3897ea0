"""Seeded random micro-instances for engine-vs-oracle equivalence tests.

Instances are deliberately tiny (a handful of workers, tasks, and grid
times) so the plain-Python oracles in ``brute_force`` stay fast, but they
are built to exercise the interesting machinery: overlapping candidate
sets, bookings, start windows, unreachable deadlines, and demands that
exceed the offered reward.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from crowdsim.assign import ScoreEngine
from crowdsim.model import Point, Task, TaskCategory, TaskOwner, TrustCounters, Worker
from crowdsim.schedule import ALL_DAYS, Segment, WeeklySchedule
from crowdsim.scoring import VelocityProfile


@dataclass
class Instance:
    tasks: list[Task]
    workers: list[Worker]
    owners: dict[int, TaskOwner]
    categories: dict[int, TaskCategory]
    now: float
    step: float
    horizon: float
    velocity: VelocityProfile
    seed: int

    def engine(self) -> ScoreEngine:
        """A fresh engine over the instance's workers, categories and owners."""
        return ScoreEngine(self.workers, list(self.categories.values()), list(self.owners.values()), self.velocity)


def random_status(rng: random.Random) -> WeeklySchedule:
    default = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    segments = []
    for _ in range(rng.randrange(3)):
        a = rng.randrange(0, 1380, 30)
        b = rng.randrange(a + 30, 1441, 30)
        segments.append(Segment(ALL_DAYS, a, b, rng.choice([0.0, 0.3, 0.7, 1.0])))
    try:
        return WeeklySchedule(tuple(segments), default=default)
    except ValueError:
        # Overlapping random segments: fall back to the constant schedule.
        return WeeklySchedule((), default=default)


def _random_pattern(rng: random.Random) -> WeeklySchedule:
    home = Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
    if rng.random() < 0.5:
        return WeeklySchedule((), default=home)
    away = Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
    a = rng.randrange(0, 720, 60)
    b = a + rng.randrange(60, 721, 60)
    return WeeklySchedule((Segment(ALL_DAYS, a, min(b, 1440), away),), default=home)


def random_worker(rng: random.Random, wid: int, category_ids: list[int]) -> Worker:
    demand = {}
    trust = {}
    for cid in category_ids:
        if rng.random() < 0.8:
            demand[cid] = rng.choice([0.0, 2.0, 5.0, 9.0, 14.0])
        if rng.random() < 0.5:
            assigned = rng.randrange(0, 6)
            accepted = rng.randrange(0, assigned + 1)
            completed = rng.randrange(0, accepted + 1)
            trust[cid] = TrustCounters(assigned, accepted, completed, rng.choice([0.3, 0.5, 0.9]))
    bookings = []
    if rng.random() < 0.35:
        a = rng.uniform(0.0, 120.0)
        bookings.append((a, a + rng.uniform(10.0, 90.0)))
    return Worker(
        id=wid,
        pattern=_random_pattern(rng),
        status=random_status(rng),
        reward_demand=demand,
        trust=trust,
        bookings=bookings,
    )


def _random_task(rng: random.Random, tid: int, now: float, category_ids: list[int], owner_ids: list[int]) -> Task:
    duration = rng.choice([5.0, 15.0, 40.0, 90.0])
    # Mix of comfortable, tight, and hopeless deadlines (always after `now`).
    slack = rng.choice([2.0, 20.0, 60.0, 180.0, 400.0])
    kw = {}
    if rng.random() < 0.3:
        earliest = now + rng.uniform(0.0, 60.0)
        kw["start_earliest"] = earliest
        if rng.random() < 0.5:
            kw["start_latest"] = earliest + rng.uniform(5.0, 120.0)
    return Task(
        id=tid,
        owner_id=rng.choice(owner_ids),
        category_id=rng.choice(category_ids),
        description=f"task {tid}",
        region=Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
        duration=duration,
        expiration=now + duration + slack,
        pto_reward=rng.choice([1.0, 4.0, 8.0, 12.0]),
        entered_priority=rng.choice([0.2, 0.6, 1.0]),
        submit_time=max(0.0, now - rng.uniform(0.0, 30.0)),
        **kw,
    )


def random_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    now = rng.choice([0.0, 15.0, 450.0])
    n_cats = rng.choice([1, 2])
    categories = {
        cid: TaskCategory(cid, f"cat-{cid}", rng.choice([0.5, 0.8, 1.0]), rng.choice([3.0, 6.0]))
        for cid in range(1, n_cats + 1)
    }
    owners = {
        oid: TaskOwner(
            oid,
            pto_priority=rng.choice([0.3, 0.7, 1.0]),
            max_reward_raise=rng.choice([0.0, 4.0, 10.0]),
            raise_increment=rng.choice([1.0, 3.0]),
        )
        for oid in (1, 2)
    }
    workers = [random_worker(rng, wid, list(categories)) for wid in range(1, rng.randrange(1, 5) + 1)]
    tasks = [_random_task(rng, tid, now, list(categories), list(owners)) for tid in range(1, rng.randrange(1, 5) + 1)]
    step = rng.choice([15.0, 30.0])
    horizon = now + step * rng.randrange(2, 6)
    if rng.random() < 0.5:
        speed = WeeklySchedule((Segment(ALL_DAYS, 0, 600, 20.0),), default=40.0)
    else:
        speed = WeeklySchedule((), default=30.0)
    velocity = VelocityProfile(schedule=speed, floor_kmh=5.0)
    return Instance(
        tasks=tasks,
        workers=workers,
        owners=owners,
        categories=categories,
        now=now,
        step=step,
        horizon=horizon,
        velocity=velocity,
        seed=seed,
    )


def bookings_of(engine: ScoreEngine, worker_id: int) -> list[tuple[float, float]]:
    """A worker's live bookings in the engine, as (start, end) tuples in ascending order."""
    return sorted(engine._bookings.get(engine.index_of[worker_id], []))


def live_worker(engine: ScoreEngine, worker_id: int) -> Worker:
    """The worker with the engine's live trust counters and the bookings it still holds."""
    w = engine.workers[engine.index_of[worker_id]]
    return replace(w, trust=dict(w.trust), bookings=bookings_of(engine, worker_id))
