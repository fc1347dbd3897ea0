"""Scenario container, JSON serialization, and the seeded workload generator.

A scenario file is a single JSON object; all times are integer minutes, all
coordinates kilometres.  Parsing is strict — any unknown or ill-typed field
fails with an error naming the offending location — and loading re-runs the
full semantic validation from ``model``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .model import (
    KM_PER_MILE,
    Disc,
    Point,
    Rect,
    Region,
    Task,
    TaskCategory,
    TaskOwner,
    TrustCounters,
    Violation,
    Worker,
    validate_scenario,
)
from .schedule import ALL_DAYS, WEEKDAYS, Segment, WeeklySchedule
from .scoring import VelocityProfile

SCHEMA_VERSION = 1


class ScenarioFormatError(ValueError):
    """The file is not a structurally valid scenario document."""


class ScenarioValidationError(ValueError):
    """The document parsed but the entities are semantically inconsistent."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class ParameterError(ValueError):
    """Generator parameters are out of range."""


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: map, travel speeds, people, and tasks."""

    extent: Rect
    velocity: VelocityProfile
    categories: list[TaskCategory]
    owners: list[TaskOwner]
    workers: list[Worker]
    tasks: list[Task]
    units: str = "km"

    def violations(self) -> list[Violation]:
        out = validate_scenario(self.tasks, self.workers, self.owners, self.categories)
        if self.units != "km":
            out.append(Violation("scenario", 0, f"units must be 'km', got {self.units!r}"))
        return out

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise ScenarioValidationError(bad)


# ---------------------------------------------------------------------------
# JSON encoding


def _region_to_json(r: Region) -> dict:
    if isinstance(r, Point):
        return {"point": [r.x, r.y]}
    if isinstance(r, Rect):
        return {"rect": [r.min_x, r.min_y, r.max_x, r.max_y]}
    if isinstance(r, Disc):
        return {"disc": [r.cx, r.cy, r.radius]}
    raise TypeError(f"not a region: {r!r}")


def _schedule_to_json(s: WeeklySchedule, value_to_json: Callable[[Any], Any]) -> dict:
    return {
        "default": value_to_json(s.default),
        "segments": [
            {
                "days": sorted(seg.days),
                "start_min": int(seg.start_min),
                "end_min": int(seg.end_min),
                "value": value_to_json(seg.value),
            }
            for seg in s.segments
        ],
    }


def to_json_dict(s: Scenario) -> dict:
    """Scenario as a plain JSON-ready dict (stable layout)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "units": s.units,
        "extent_km": [s.extent.min_x, s.extent.min_y, s.extent.max_x, s.extent.max_y],
        "velocity_profile": {
            "floor_kmh": s.velocity.floor_kmh,
            "schedule": _schedule_to_json(s.velocity.schedule, float),
        },
        "categories": [
            {"id": c.id, "name": c.name, "cat_priority": c.cat_priority, "cat_reward": c.cat_reward}
            for c in s.categories
        ],
        "owners": [
            {
                "id": o.id,
                "pto_priority": o.pto_priority,
                "max_reward_raise": o.max_reward_raise,
                "raise_increment": o.raise_increment,
            }
            for o in s.owners
        ],
        "workers": [
            {
                "id": w.id,
                "pattern": _schedule_to_json(w.pattern, _region_to_json),
                "status": _schedule_to_json(w.status, float),
                "reward_demand": {str(k): v for k, v in sorted(w.reward_demand.items())},
                "trust": {
                    str(k): {
                        "assigned": t.assigned,
                        "accepted": t.accepted,
                        "completed": t.completed,
                        "initial_score": t.initial_score,
                    }
                    for k, t in sorted(w.trust.items())
                },
                "bookings": [[int(a), int(b)] for a, b in w.bookings],
            }
            for w in s.workers
        ],
        "tasks": [
            _task_to_json(t)
            for t in s.tasks
        ],
    }


def _task_to_json(t: Task) -> dict:
    out = {
        "id": t.id,
        "owner_id": t.owner_id,
        "category_id": t.category_id,
        "description": t.description,
        "region": _region_to_json(t.region),
        "duration_min": int(t.duration),
        "expiration_min": int(t.expiration),
        "reward": t.pto_reward,
        "entered_priority": t.entered_priority,
        "submit_min": int(t.submit_time),
    }
    if t.start_earliest is not None:
        out["start_earliest_min"] = int(t.start_earliest)
    if t.start_latest is not None:
        out["start_latest_min"] = int(t.start_latest)
    return out


def save(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario as deterministic, human-diffable JSON."""
    Path(path).write_text(json.dumps(to_json_dict(scenario), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# JSON decoding (strict)


def _fail(ctx: str, msg: str) -> None:
    raise ScenarioFormatError(f"{ctx}: {msg}")


def _obj(v: Any, ctx: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(v, dict):
        _fail(ctx, f"expected an object, got {type(v).__name__}")
    for key in required:
        if key not in v:
            _fail(ctx, f"missing field '{key}'")
    allowed = set(required) | set(optional)
    for key in v:
        if key not in allowed:
            _fail(ctx, f"unknown field '{key}'")
    return v


def _finite(v: int | float, ctx: str) -> float:
    # json reads NaN, Infinity and integers too large for a float.
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        _fail(ctx, f"expected a finite number, got {v!r}")
    return f


def _num(v: Any, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(ctx, f"expected a number, got {v!r}")
    return _finite(v, ctx)


def _int_minutes(v: Any, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(ctx, f"times must be integer minutes, got {v!r}")
    return _finite(v, ctx)


def _int(v: Any, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(ctx, f"expected an integer, got {v!r}")
    return v


def _str(v: Any, ctx: str) -> str:
    if not isinstance(v, str):
        _fail(ctx, f"expected a string, got {v!r}")
    return v


def _list(v: Any, ctx: str) -> list:
    if not isinstance(v, list):
        _fail(ctx, f"expected an array, got {type(v).__name__}")
    return v


def _numbers(v: Any, ctx: str, n: int) -> list[float]:
    items = _list(v, ctx)
    if len(items) != n:
        _fail(ctx, f"expected {n} numbers, got {len(items)}")
    return [_num(x, f"{ctx}[{i}]") for i, x in enumerate(items)]


def _region_from_json(v: Any, ctx: str) -> Region:
    d = _obj(v, ctx, (), ("point", "rect", "disc"))
    if len(d) != 1:
        _fail(ctx, "region must have exactly one of 'point', 'rect', 'disc'")
    try:
        if "point" in d:
            x, y = _numbers(d["point"], f"{ctx}.point", 2)
            return Point(x, y)
        if "rect" in d:
            a, b, c, e = _numbers(d["rect"], f"{ctx}.rect", 4)
            return Rect(a, b, c, e)
        cx, cy, r = _numbers(d["disc"], f"{ctx}.disc", 3)
        return Disc(cx, cy, r)
    except ValueError as exc:
        raise ScenarioFormatError(f"{ctx}: {exc}") from None


def _schedule_from_json(v: Any, ctx: str, parse_value: Callable[[Any, str], Any]) -> WeeklySchedule:
    d = _obj(v, ctx, ("default",), ("segments",))
    default = parse_value(d["default"], f"{ctx}.default")
    segments = []
    for i, seg in enumerate(_list(d.get("segments", []), f"{ctx}.segments")):
        sctx = f"{ctx}.segments[{i}]"
        sd = _obj(seg, sctx, ("days", "start_min", "end_min", "value"))
        days = frozenset(_int(x, f"{sctx}.days[{j}]") for j, x in enumerate(_list(sd["days"], f"{sctx}.days")))
        try:
            segments.append(
                Segment(
                    days=days,
                    start_min=_int_minutes(sd["start_min"], f"{sctx}.start_min"),
                    end_min=_int_minutes(sd["end_min"], f"{sctx}.end_min"),
                    value=parse_value(sd["value"], f"{sctx}.value"),
                )
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"{sctx}: {exc}") from None
    try:
        return WeeklySchedule(tuple(segments), default)
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError(f"{ctx}: {exc}") from None


def from_json_dict(doc: Any) -> Scenario:
    """Parse a scenario document; strict about structure and field names."""
    d = _obj(
        doc,
        "scenario",
        ("schema_version", "units", "extent_km", "velocity_profile", "categories", "owners", "workers", "tasks"),
    )
    version = _int(d["schema_version"], "scenario.schema_version")
    if version != SCHEMA_VERSION:
        _fail("scenario.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    units = _str(d["units"], "scenario.units")
    a, b, c, e = _numbers(d["extent_km"], "scenario.extent_km", 4)
    try:
        extent = Rect(a, b, c, e)
    except ValueError as exc:
        raise ScenarioFormatError(f"scenario.extent_km: {exc}") from None

    vp = _obj(d["velocity_profile"], "scenario.velocity_profile", ("floor_kmh", "schedule"))
    try:
        velocity = VelocityProfile(
            schedule=_schedule_from_json(vp["schedule"], "scenario.velocity_profile.schedule", _num),
            floor_kmh=_num(vp["floor_kmh"], "scenario.velocity_profile.floor_kmh"),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"scenario.velocity_profile: {exc}") from None

    categories = []
    for i, cv in enumerate(_list(d["categories"], "scenario.categories")):
        ctx = f"scenario.categories[{i}]"
        cd = _obj(cv, ctx, ("id", "name", "cat_priority", "cat_reward"))
        categories.append(
            TaskCategory(
                id=_int(cd["id"], f"{ctx}.id"),
                name=_str(cd["name"], f"{ctx}.name"),
                cat_priority=_num(cd["cat_priority"], f"{ctx}.cat_priority"),
                cat_reward=_num(cd["cat_reward"], f"{ctx}.cat_reward"),
            )
        )
    owners = []
    for i, ov in enumerate(_list(d["owners"], "scenario.owners")):
        ctx = f"scenario.owners[{i}]"
        od = _obj(ov, ctx, ("id", "pto_priority", "max_reward_raise", "raise_increment"))
        owners.append(
            TaskOwner(
                id=_int(od["id"], f"{ctx}.id"),
                pto_priority=_num(od["pto_priority"], f"{ctx}.pto_priority"),
                max_reward_raise=_num(od["max_reward_raise"], f"{ctx}.max_reward_raise"),
                raise_increment=_num(od["raise_increment"], f"{ctx}.raise_increment"),
            )
        )

    workers = []
    for i, wv in enumerate(_list(d["workers"], "scenario.workers")):
        ctx = f"scenario.workers[{i}]"
        wd = _obj(wv, ctx, ("id", "pattern", "status"), ("reward_demand", "trust", "bookings"))
        demand: dict[int, float] = {}
        for k, v in _any_obj(wd.get("reward_demand", {}), f"{ctx}.reward_demand").items():
            demand[_key_int(k, f"{ctx}.reward_demand")] = _num(v, f"{ctx}.reward_demand[{k}]")
        trust: dict[int, TrustCounters] = {}
        for k, v in _any_obj(wd.get("trust", {}), f"{ctx}.trust").items():
            tctx = f"{ctx}.trust[{k}]"
            td = _obj(v, tctx, ("assigned", "accepted", "completed", "initial_score"))
            trust[_key_int(k, f"{ctx}.trust")] = TrustCounters(
                assigned=_int(td["assigned"], f"{tctx}.assigned"),
                accepted=_int(td["accepted"], f"{tctx}.accepted"),
                completed=_int(td["completed"], f"{tctx}.completed"),
                initial_score=_num(td["initial_score"], f"{tctx}.initial_score"),
            )
        bookings = []
        for j, bv in enumerate(_list(wd.get("bookings", []), f"{ctx}.bookings")):
            s0, e0 = _numbers_int(bv, f"{ctx}.bookings[{j}]")
            bookings.append((s0, e0))
        workers.append(
            Worker(
                id=_int(wd["id"], f"{ctx}.id"),
                pattern=_schedule_from_json(wd["pattern"], f"{ctx}.pattern", _region_from_json),
                status=_schedule_from_json(wd["status"], f"{ctx}.status", _num),
                reward_demand=demand,
                trust=trust,
                bookings=bookings,
            )
        )

    tasks = []
    for i, tv in enumerate(_list(d["tasks"], "scenario.tasks")):
        ctx = f"scenario.tasks[{i}]"
        td = _obj(
            tv,
            ctx,
            (
                "id",
                "owner_id",
                "category_id",
                "description",
                "region",
                "duration_min",
                "expiration_min",
                "reward",
                "entered_priority",
                "submit_min",
            ),
            ("start_earliest_min", "start_latest_min"),
        )
        tasks.append(
            Task(
                id=_int(td["id"], f"{ctx}.id"),
                owner_id=_int(td["owner_id"], f"{ctx}.owner_id"),
                category_id=_int(td["category_id"], f"{ctx}.category_id"),
                description=_str(td["description"], f"{ctx}.description"),
                region=_region_from_json(td["region"], f"{ctx}.region"),
                duration=_int_minutes(td["duration_min"], f"{ctx}.duration_min"),
                expiration=_int_minutes(td["expiration_min"], f"{ctx}.expiration_min"),
                pto_reward=_num(td["reward"], f"{ctx}.reward"),
                entered_priority=_num(td["entered_priority"], f"{ctx}.entered_priority"),
                submit_time=_int_minutes(td["submit_min"], f"{ctx}.submit_min"),
                start_earliest=(
                    _int_minutes(td["start_earliest_min"], f"{ctx}.start_earliest_min")
                    if "start_earliest_min" in td
                    else None
                ),
                start_latest=(
                    _int_minutes(td["start_latest_min"], f"{ctx}.start_latest_min")
                    if "start_latest_min" in td
                    else None
                ),
            )
        )

    scenario = Scenario(
        extent=extent, velocity=velocity, categories=categories, owners=owners, workers=workers, tasks=tasks,
        units=units,
    )
    scenario.validate()
    return scenario


def _any_obj(v: Any, ctx: str) -> dict:
    if not isinstance(v, dict):
        _fail(ctx, f"expected an object, got {type(v).__name__}")
    return v


def _key_int(k: str, ctx: str) -> int:
    try:
        return int(k)
    except ValueError:
        raise ScenarioFormatError(f"{ctx}: key {k!r} is not an integer id") from None


def _numbers_int(v: Any, ctx: str) -> tuple[float, float]:
    items = _list(v, ctx)
    if len(items) != 2:
        _fail(ctx, f"expected [start, end], got {len(items)} items")
    return _int_minutes(items[0], f"{ctx}[0]"), _int_minutes(items[1], f"{ctx}[1]")


def load(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from None
    return from_json_dict(doc)


# ---------------------------------------------------------------------------
# workload generator


@dataclass(frozen=True)
class GenParams:
    """Knobs for the synthetic workload generator."""

    n_workers: int
    n_tasks: int
    n_categories: int = 3
    n_owners: int = 8
    map_size_km: float = 10.0
    fraction_commuters: float = 0.6
    status_levels: tuple[float, ...] = (0.1, 0.5, 0.9)
    reward_range: tuple[float, float] = (5.0, 20.0)
    demand_range: tuple[float, float] = (2.0, 10.0)
    urgent_fraction: float = 0.25
    horizon_min: float = 10080.0
    duration_range: tuple[int, int] = (10, 90)
    lead_range: tuple[int, int] = (180, 1440)
    urgent_lead_range: tuple[int, int] = (30, 240)

    def __post_init__(self) -> None:
        def bad(msg: str):
            return ParameterError(msg)

        if self.n_workers < 1:
            raise bad(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_tasks < 0:
            raise bad(f"n_tasks must be >= 0, got {self.n_tasks}")
        if self.n_categories < 1:
            raise bad(f"n_categories must be >= 1, got {self.n_categories}")
        if self.n_owners < 1:
            raise bad(f"n_owners must be >= 1, got {self.n_owners}")
        if not (0 < self.map_size_km < math.inf):
            raise bad(f"map_size_km must be finite and > 0, got {self.map_size_km}")
        for name in ("fraction_commuters", "urgent_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise bad(f"{name} must be in [0, 1], got {v}")
        if not self.status_levels or any(not 0.0 <= s <= 1.0 for s in self.status_levels):
            raise bad(f"status_levels must be non-empty values in [0, 1], got {self.status_levels}")
        for name in ("reward_range", "demand_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise bad(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")
        for name in ("duration_range", "lead_range", "urgent_lead_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise bad(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")
        if not (0 < self.horizon_min < math.inf):
            raise bad(f"horizon_min must be finite and > 0, got {self.horizon_min}")


def _count(n: int, fraction: float) -> int:
    # floor() on the nudged product so 100 * 0.29 counts as 29, not 28.
    return math.floor(n * fraction + 1e-9)


def generate(params: GenParams, seed: int) -> Scenario:
    """Draw a random but fully reproducible scenario.

    The draw order is fixed (categories, owners, workers, tasks, each field
    in declaration order), so adding entities never reshuffles earlier ones
    for the same seed.
    """
    rng = random.Random(seed)
    m = params.map_size_km

    def pt() -> Point:
        return Point(round(rng.uniform(0.0, m), 3), round(rng.uniform(0.0, m), 3))

    categories = [
        TaskCategory(
            id=i,
            name=f"cat-{i}",
            cat_priority=round(rng.uniform(0.3, 1.0), 3),
            cat_reward=round(rng.uniform(*params.demand_range), 2),
        )
        for i in range(1, params.n_categories + 1)
    ]
    owners = [
        TaskOwner(
            id=i,
            pto_priority=round(rng.uniform(0.2, 1.0), 3),
            max_reward_raise=round(rng.uniform(0.0, 0.5 * params.reward_range[1]), 2),
            raise_increment=round(rng.uniform(0.5, 2.0), 2),
        )
        for i in range(1, params.n_owners + 1)
    ]

    levels = sorted(params.status_levels)
    lo, mid, hi = levels[0], levels[len(levels) // 2], levels[-1]
    n_commuters = _count(params.n_workers, params.fraction_commuters)
    workers = []
    for i in range(1, params.n_workers + 1):
        home = pt()
        if i <= n_commuters:
            work = pt()
            pattern = WeeklySchedule(
                (Segment(WEEKDAYS, 540, 1020, work),),
                default=home,
            )
            status = WeeklySchedule(
                (
                    Segment(WEEKDAYS, 420, 540, mid),
                    Segment(WEEKDAYS, 540, 1020, lo),
                    Segment(WEEKDAYS, 1020, 1380, hi),
                    Segment(frozenset({5, 6}), 540, 1380, hi),
                ),
                default=lo,
            )
        else:
            # Non-commuters keep one 10-hour active window per day, offset
            # per worker so the population mixes active and idle people at
            # any given hour.
            w0 = rng.randrange(360, 721, 60)
            pattern = WeeklySchedule((), default=home)
            status = WeeklySchedule(
                (
                    Segment(ALL_DAYS, w0, w0 + 60, mid),
                    Segment(ALL_DAYS, w0 + 60, w0 + 660, hi),
                    Segment(ALL_DAYS, w0 + 660, w0 + 720, mid),
                ),
                default=lo,
            )
        demand = {c.id: round(rng.uniform(*params.demand_range), 2) for c in categories}
        trust = {
            c.id: TrustCounters(initial_score=round(rng.uniform(0.3, 0.9), 3)) for c in categories
        }
        workers.append(
            Worker(id=i, pattern=pattern, status=status, reward_demand=demand, trust=trust)
        )

    n_urgent = _count(params.n_tasks, params.urgent_fraction)
    horizon = int(params.horizon_min)
    n_days = max(1, horizon // 1440)
    tasks = []
    for i in range(1, params.n_tasks + 1):
        owner = owners[rng.randrange(params.n_owners)]
        category = categories[rng.randrange(params.n_categories)]
        region = pt()
        # Submissions land in waking hours (07:00-23:00 of some day).
        submit = rng.randrange(n_days) * 1440 + rng.randrange(420, 1380)
        if submit >= horizon:
            submit = rng.randrange(horizon)
        duration = rng.randrange(params.duration_range[0], params.duration_range[1] + 1)
        lead_lo, lead_hi = params.urgent_lead_range if i <= n_urgent else params.lead_range
        lead = max(rng.randrange(lead_lo, lead_hi + 1), duration + 1)
        start_earliest = start_latest = None
        if rng.random() < 0.15:
            e0 = submit + rng.randrange(0, max(1, lead // 3))
            l0 = e0 + rng.randrange(duration, max(duration + 1, (2 * lead) // 3))
            l0 = min(l0, submit + lead)
            if e0 <= l0:
                start_earliest, start_latest = float(e0), float(l0)
        tasks.append(
            Task(
                id=i,
                owner_id=owner.id,
                category_id=category.id,
                description=f"task-{i}",
                region=region,
                duration=float(duration),
                expiration=float(submit + lead),
                pto_reward=round(rng.uniform(*params.reward_range), 2),
                entered_priority=round(rng.uniform(0.2, 1.0), 3),
                submit_time=float(submit),
                start_earliest=start_earliest,
                start_latest=start_latest,
            )
        )

    return Scenario(
        extent=Rect(0.0, 0.0, m, m),
        velocity=_default_velocity(),
        categories=categories,
        owners=owners,
        workers=workers,
        tasks=tasks,
    )


def _default_velocity() -> VelocityProfile:
    return VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0)


# ---------------------------------------------------------------------------
# built-in example scenarios


def builtin_scenarios() -> dict[str, Scenario]:
    """Small hand-built scenarios with known-by-construction outcomes."""
    flower = Scenario(
        extent=Rect(0.0, 0.0, 20.0, 20.0),
        velocity=_default_velocity(),
        categories=[TaskCategory(id=1, name="delivery", cat_priority=1.0, cat_reward=5.0)],
        owners=[TaskOwner(id=1, pto_priority=0.5, max_reward_raise=5.0, raise_increment=1.0)],
        workers=[
            # Far worker, free all week.
            Worker(
                id=1,
                pattern=WeeklySchedule((), default=Point(5.0 + 3 * KM_PER_MILE, 5.0)),
                status=WeeklySchedule((), default=1.0),
                reward_demand={1: 5.0},
                trust={1: TrustCounters(initial_score=1.0)},
            ),
            # Near worker who is never free, so a distance-only dispatcher
            # wastes its first offer on a guaranteed rejection.
            Worker(
                id=2,
                pattern=WeeklySchedule((), default=Point(5.0 + KM_PER_MILE, 5.0)),
                status=WeeklySchedule((), default=0.0),
                reward_demand={1: 5.0},
                trust={1: TrustCounters(initial_score=1.0)},
            ),
        ],
        tasks=[
            Task(
                id=1,
                owner_id=1,
                category_id=1,
                description="flower delivery",
                region=Point(5.0, 5.0),
                duration=30.0,
                expiration=660.0,
                pto_reward=10.0,
                entered_priority=1.0,
                submit_time=540.0,
            )
        ],
    )

    cluster_workers = [
        Worker(
            id=i,
            pattern=WeeklySchedule(
                (Segment(WEEKDAYS, 480, 1080, Point(4.9 + 0.01 * i, 5.0)),),
                default=Point(4.0 + 0.02 * i, 8.0),
            ),
            status=WeeklySchedule(
                (
                    Segment(WEEKDAYS, 480, 1080, 0.1),
                    Segment(WEEKDAYS, 1080, 1380, 0.9),
                ),
                default=0.0,
            ),
            reward_demand={1: 4.0},
            trust={1: TrustCounters(initial_score=1.0)},
        )
        for i in range(1, 21)
    ]
    errand = Scenario(
        extent=Rect(0.0, 0.0, 20.0, 20.0),
        velocity=_default_velocity(),
        categories=[TaskCategory(id=1, name="errand", cat_priority=1.0, cat_reward=4.0)],
        owners=[TaskOwner(id=1, pto_priority=0.5, max_reward_raise=4.0, raise_increment=1.0)],
        workers=cluster_workers
        + [
            Worker(
                id=21,
                pattern=WeeklySchedule((), default=Point(9.0, 5.0)),
                status=WeeklySchedule((), default=1.0),
                reward_demand={1: 4.0},
                trust={1: TrustCounters(initial_score=1.0)},
            )
        ],
        tasks=[
            Task(
                id=1,
                owner_id=1,
                category_id=1,
                description="urgent errand",
                region=Point(5.5, 5.0),
                duration=20.0,
                expiration=780.0,
                pto_reward=8.0,
                entered_priority=1.0,
                submit_time=600.0,
            )
        ],
    )
    return {
        "example1-flower-delivery": flower,
        "example2-high-entropy": errand,
    }
