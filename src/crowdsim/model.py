"""Domain records: planar regions, task categories, owners, tasks, and workers.

All geometry lives in a flat km coordinate system.  Regions are validated at
construction; everything else is validated as data by ``validate_scenario``
so malformed records can be reported rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schedule import WeeklySchedule

KM_PER_MILE = 1.609

#: Trust score assumed for a (worker, category) pair with no registered entry.
DEFAULT_INITIAL_TRUST = 0.5

#: Largest |x| or |y| of a task's or worker's place; squaring a coordinate
#: difference overflows to infinity near 1.3e154 km.
MAX_COORDINATE_KM = 1e6

#: Every scenario time is below this many minutes (2**53).  Below it a float
#: has a step of at most one minute, so a retry one grid step (at least a
#: minute) later always moves the clock on.  NaN is not below it either.
MAX_TIME_MIN = float(2**53)


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Rect:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"rect needs min <= max on both axes, got "
                f"({self.min_x}, {self.min_y})..({self.max_x}, {self.max_y})"
            )


@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"disc radius must be >= 0, got {self.radius}")


Region = Point | Rect | Disc


def centroid(region: Region) -> Point:
    """Representative point of a region."""
    if isinstance(region, Point):
        return region
    if isinstance(region, Rect):
        return Point((region.min_x + region.max_x) / 2.0, (region.min_y + region.max_y) / 2.0)
    if isinstance(region, Disc):
        return Point(region.cx, region.cy)
    raise TypeError(f"not a region: {region!r}")


def distance(a: Region, b: Region) -> float:
    """Euclidean distance between region centroids, in km."""
    ca = centroid(a)
    cb = centroid(b)
    dx = ca.x - cb.x
    dy = ca.y - cb.y
    return math.sqrt(dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# entities


@dataclass(frozen=True)
class TaskCategory:
    id: int
    name: str
    cat_priority: float
    cat_reward: float


@dataclass(frozen=True)
class TaskOwner:
    id: int
    pto_priority: float
    max_reward_raise: float
    raise_increment: float


@dataclass(frozen=True)
class TrustCounters:
    """Per-category assignment history of one worker."""

    assigned: int = 0
    accepted: int = 0
    completed: int = 0
    initial_score: float = DEFAULT_INITIAL_TRUST


@dataclass(frozen=True)
class Task:
    id: int
    owner_id: int
    category_id: int
    description: str
    region: Region
    duration: float
    expiration: float
    pto_reward: float
    entered_priority: float
    submit_time: float
    start_earliest: float | None = None
    start_latest: float | None = None


@dataclass(frozen=True)
class Worker:
    """A registered worker: weekly pattern and status, demands, and history.

    A worker is input, and no run copies or changes it.  ``trust`` and
    ``bookings`` are the state at the start of a run, which the run's
    ``ScoreEngine`` holds by worker index from then on.  The worker's home
    region is the default of the movement pattern.
    """

    id: int
    pattern: WeeklySchedule
    status: WeeklySchedule
    reward_demand: dict[int, float] = field(default_factory=dict)
    trust: dict[int, TrustCounters] = field(default_factory=dict)
    bookings: list[tuple[float, float]] = field(default_factory=list)

    @property
    def home(self) -> Region:
        return self.pattern.default

    def trust_for(self, category_id: int) -> TrustCounters:
        return self.trust.get(category_id) or TrustCounters()


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    entity: str
    entity_id: int
    message: str

    def __str__(self) -> str:
        return f"{self.entity} {self.entity_id}: {self.message}"


def _check_unit(violations: list[Violation], entity: str, eid: int, name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        violations.append(Violation(entity, eid, f"{name} must be in [0, 1], got {value}"))


def _check_place(violations: list[Violation], entity: str, eid: int, place: Region) -> None:
    try:
        c = centroid(place)
    except TypeError:
        violations.append(Violation(entity, eid, f"place is not a region: {place!r}"))
        return
    if not (abs(c.x) <= MAX_COORDINATE_KM and abs(c.y) <= MAX_COORDINATE_KM):
        violations.append(
            Violation(entity, eid, f"place ({c.x}, {c.y}) has a coordinate beyond {MAX_COORDINATE_KM:g} km")
        )


def validate_scenario(
    tasks: list[Task],
    workers: list[Worker],
    owners: list[TaskOwner],
    categories: list[TaskCategory],
) -> list[Violation]:
    """Check every cross-entity and range invariant; returns all violations found."""
    out: list[Violation] = []

    cat_ids: set[int] = set()
    for cat in categories:
        if cat.id in cat_ids:
            out.append(Violation("category", cat.id, "duplicate id"))
        cat_ids.add(cat.id)
        _check_unit(out, "category", cat.id, "cat_priority", cat.cat_priority)
        if not (0 < cat.cat_reward < math.inf):
            out.append(Violation("category", cat.id, f"cat_reward must be finite and > 0, got {cat.cat_reward}"))

    owner_ids: set[int] = set()
    for owner in owners:
        if owner.id in owner_ids:
            out.append(Violation("owner", owner.id, "duplicate id"))
        owner_ids.add(owner.id)
        if not (0.0 < owner.pto_priority <= 1.0):
            out.append(
                Violation("owner", owner.id, f"pto_priority must be in (0, 1], got {owner.pto_priority}")
            )
        if not (0 <= owner.max_reward_raise < math.inf):
            out.append(
                Violation(
                    "owner", owner.id, f"max_reward_raise must be finite and >= 0, got {owner.max_reward_raise}"
                )
            )
        if not (0 < owner.raise_increment < math.inf):
            out.append(
                Violation("owner", owner.id, f"raise_increment must be finite and > 0, got {owner.raise_increment}")
            )

    worker_ids: set[int] = set()
    for worker in workers:
        if worker.id in worker_ids:
            out.append(Violation("worker", worker.id, "duplicate id"))
        worker_ids.add(worker.id)
        for place in (worker.pattern.default, *(seg.value for seg in worker.pattern.segments)):
            _check_place(out, "worker", worker.id, place)
        for value in worker.status.piece_values:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                out.append(Violation("worker", worker.id, f"status value is not a number: {value!r}"))
            elif not (0.0 <= value <= 1.0):
                out.append(Violation("worker", worker.id, f"status value must be in [0, 1], got {value}"))
        for cat_id, demand in worker.reward_demand.items():
            if cat_id not in cat_ids:
                out.append(Violation("worker", worker.id, f"reward demand for unknown category {cat_id}"))
            if not (0 <= demand < math.inf):
                out.append(Violation("worker", worker.id, f"reward demand must be finite and >= 0, got {demand}"))
        for cat_id, counters in worker.trust.items():
            if cat_id not in cat_ids:
                out.append(Violation("worker", worker.id, f"trust counters for unknown category {cat_id}"))
            if min(counters.assigned, counters.accepted, counters.completed) < 0:
                out.append(Violation("worker", worker.id, "trust counters must be >= 0"))
            if not (counters.completed <= counters.accepted <= counters.assigned):
                out.append(
                    Violation(
                        "worker",
                        worker.id,
                        "trust counters must satisfy completed <= accepted <= assigned, got "
                        f"{counters.completed}/{counters.accepted}/{counters.assigned}",
                    )
                )
            _check_unit(out, "worker", worker.id, "trust initial_score", counters.initial_score)
        previous_end = None
        for start, end in worker.bookings:
            if not (start < end):
                out.append(Violation("worker", worker.id, f"booking [{start}, {end}) is empty or inverted"))
            if not (end < MAX_TIME_MIN):
                out.append(Violation("worker", worker.id, f"booking end must be below 2**53 minutes, got {end}"))
            if previous_end is not None and start < previous_end:
                out.append(Violation("worker", worker.id, "bookings must be sorted and disjoint"))
            previous_end = end

    task_ids: set[int] = set()
    for task in tasks:
        if task.id in task_ids:
            out.append(Violation("task", task.id, "duplicate id"))
        task_ids.add(task.id)
        if task.owner_id not in owner_ids:
            out.append(Violation("task", task.id, f"unknown owner {task.owner_id}"))
        if task.category_id not in cat_ids:
            out.append(Violation("task", task.id, f"unknown category {task.category_id}"))
        _check_place(out, "task", task.id, task.region)
        for name, value in (
            ("submit_time", task.submit_time),
            ("expiration", task.expiration),
            ("start_earliest", task.start_earliest),
            ("start_latest", task.start_latest),
        ):
            if value is not None and not (value < MAX_TIME_MIN):
                out.append(Violation("task", task.id, f"{name} must be below 2**53 minutes, got {value}"))
        if not (task.submit_time >= 0):
            out.append(Violation("task", task.id, f"submit_time must be >= 0, got {task.submit_time}"))
        if not (task.submit_time <= task.expiration):
            out.append(
                Violation(
                    "task", task.id, f"submit_time {task.submit_time} is after expiration {task.expiration}"
                )
            )
        if not (0 <= task.duration < math.inf):
            out.append(Violation("task", task.id, f"duration must be finite and >= 0, got {task.duration}"))
        if not (0 < task.pto_reward < math.inf):
            out.append(Violation("task", task.id, f"pto_reward must be finite and > 0, got {task.pto_reward}"))
        _check_unit(out, "task", task.id, "entered_priority", task.entered_priority)
        t1, t2 = task.start_earliest, task.start_latest
        if t1 is not None and t2 is not None and t1 > t2:
            out.append(Violation("task", task.id, f"start window inverted: [{t1}, {t2}]"))
        for bound_name, bound in (("start_earliest", t1), ("start_latest", t2)):
            if bound is not None and bound > task.expiration:
                out.append(
                    Violation("task", task.id, f"{bound_name} {bound} is after expiration {task.expiration}")
                )

    return out
