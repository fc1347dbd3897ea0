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
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, NamedTuple, NoReturn

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
from .schedule import ALL_DAYS, WEEKDAYS, WEEKEND, Segment, WeeklySchedule
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
    #: The file format version a scenario is saved in.
    schema_version: ClassVar[int] = SCHEMA_VERSION

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
# JSON schema
#
# Each record is one field table: the JSON key, the codec that reads and
# writes its value, the record attribute it fills and whether the key may be
# left out.  The same table drives saving, strict loading and error locations.


def _fail(ctx: str, msg: str) -> NoReturn:
    raise ScenarioFormatError(f"{ctx}: {msg}")


def _obj(v: Any, ctx: str, required: tuple[str, ...], allowed: frozenset[str]) -> None:
    if not isinstance(v, dict):
        _fail(ctx, f"expected an object, got {type(v).__name__}")
    for key in required:
        if key not in v:
            _fail(ctx, f"missing field '{key}'")
    if not allowed.issuperset(v):
        _fail(ctx, f"unknown field '{next(key for key in v if key not in allowed)}'")


def _list(v: Any, ctx: str) -> list:
    if not isinstance(v, list):
        _fail(ctx, f"expected an array, got {type(v).__name__}")
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


def _version(v: Any, ctx: str) -> int:
    version = _int(v, ctx)
    if version != SCHEMA_VERSION:
        _fail(ctx, f"unsupported version {version}, expected {SCHEMA_VERSION}")
    return version


class _Scalar:
    """A JSON scalar: ``load(value, ctx)`` checks and converts, ``dump`` writes."""

    def __init__(self, load: Callable[[Any, str], Any], dump: Callable[[Any], Any]):
        self.load = load
        self.dump = dump


_NUMBER = _Scalar(_num, float)
_INT = _Scalar(_int, int)
_STR = _Scalar(_str, str)
_MINUTES = _Scalar(_int_minutes, int)
_VERSION = _Scalar(_version, int)


class _Array:
    """A JSON array of one item codec; item ``i`` is located at ``ctx[i]``."""

    def __init__(self, item: _Codec, sort: bool = False):
        self.item = item
        self.sort = sort

    def load(self, v: Any, ctx: str) -> list:
        load = self.item.load
        return [load(x, f"{ctx}[{i}]") for i, x in enumerate(_list(v, ctx))]

    def dump(self, values: Iterable) -> list:
        return list(map(self.item.dump, sorted(values) if self.sort else values))


class _Tuple:
    """A fixed-length JSON array built into one value by ``make(*items)``."""

    def __init__(
        self, make: Callable, parts: Callable[[Any], tuple], n: int, item: _Codec = _NUMBER, shape: str = ""
    ):
        self.make = make
        self.parts = parts
        self.n = n
        self.item = item
        self.shape = shape or f"{n} numbers"

    def load(self, v: Any, ctx: str) -> Any:
        if len(_list(v, ctx)) != self.n:
            _fail(ctx, f"expected {self.shape}, got {len(v)}")
        load = self.item.load
        items = [load(x, f"{ctx}[{i}]") for i, x in enumerate(v)]
        try:
            return self.make(*items)
        except ValueError as exc:
            raise ScenarioFormatError(f"{ctx}: {exc}") from None

    def dump(self, value: Any) -> list:
        return list(map(self.item.dump, self.parts(value)))


class _Region:
    """A region: an object with exactly one key, which names its shape."""

    shapes = {
        "point": _Tuple(Point, attrgetter("x", "y"), 2),
        "rect": _Tuple(Rect, attrgetter("min_x", "min_y", "max_x", "max_y"), 4),
        "disc": _Tuple(Disc, attrgetter("cx", "cy", "radius"), 3),
    }
    allowed = frozenset(shapes)
    by_type = {shape.make: (key, shape) for key, shape in shapes.items()}

    def load(self, v: Any, ctx: str) -> Region:
        _obj(v, ctx, (), self.allowed)
        if len(v) != 1:
            _fail(ctx, "region must have exactly one of 'point', 'rect', 'disc'")
        ((key, value),) = v.items()
        return self.shapes[key].load(value, f"{ctx}.{key}")

    def dump(self, region: Region) -> dict:
        try:
            key, shape = self.by_type[type(region)]
        except KeyError:
            raise TypeError(f"not a region: {region!r}") from None
        return {key: shape.dump(region)}


class _IdMap:
    """A JSON object keyed by integer ids written as strings; entry ``k`` is located at ``ctx[k]``."""

    def __init__(self, item: _Codec):
        self.item = item

    def load(self, v: Any, ctx: str) -> dict[int, Any]:
        if not isinstance(v, dict):
            _fail(ctx, f"expected an object, got {type(v).__name__}")
        load = self.item.load
        out = {}
        for k, x in v.items():
            try:
                key = int(k)
            except ValueError:
                key = None
            if str(key) != k:  # "01", " 1 " or "1_0" would alias another key
                raise ScenarioFormatError(f"{ctx}: key {k!r} is not an integer id")
            out[key] = load(x, f"{ctx}[{k}]")
        return out

    def dump(self, mapping: dict[int, Any]) -> dict[str, Any]:
        dump = self.item.dump
        return {str(k): dump(x) for k, x in sorted(mapping.items())}


class _Field(NamedTuple):
    """One key of a record: its codec, the attribute it fills (the key when
    empty), and whether it may be left out, taking the constructor default."""

    key: str
    codec: _Codec
    attr: str = ""
    optional: bool = False


class _Record:
    """A JSON object declared by a field table and built by ``make(**fields)``.

    Loading checks for missing and unknown keys, loads field ``key`` at
    ``ctx.key`` and calls ``make`` once; only ``make``'s own ``ValueError`` is
    located at ``ctx``.  Dumping writes, in table order, every field whose
    attribute is not ``None``.
    """

    def __init__(self, make: Callable[..., Any], fields: Iterable[_Field]):
        self.make = make
        self.fields = tuple(fields)
        self.required = tuple(f.key for f in self.fields if not f.optional)
        self.allowed = frozenset(f.key for f in self.fields)
        attrs = [f.attr or f.key for f in self.fields]
        self.plan = tuple((f.key, "." + f.key, attr, f.codec.load) for f, attr in zip(self.fields, attrs))
        self.keys_dumps = tuple((f.key, f.codec.dump) for f in self.fields)
        self.values = attrgetter(*attrs)

    def load(self, v: Any, ctx: str) -> Any:
        _obj(v, ctx, self.required, self.allowed)
        kwargs = {}
        for key, dotted, attr, load in self.plan:
            if key in v:
                kwargs[attr] = load(v[key], ctx + dotted)
        try:
            return self.make(**kwargs)
        except ValueError as exc:
            raise ScenarioFormatError(f"{ctx}: {exc}") from None

    def dump(self, record: Any) -> dict:
        out = {}
        for (key, dump), value in zip(self.keys_dumps, self.values(record)):
            if value is not None:
                out[key] = dump(value)
        return out


_Codec = _Scalar | _Array | _Tuple | _Region | _IdMap | _Record

_REGION = _Region()
_DAYS = _Array(_INT, sort=True)
_BOOKING = _Tuple(lambda start, end: (start, end), tuple, 2, _MINUTES, "[start, end]")


def _schedule(value: _Codec) -> _Record:
    segment = _Record(
        Segment,
        [_Field("days", _DAYS), _Field("start_min", _MINUTES), _Field("end_min", _MINUTES), _Field("value", value)],
    )
    return _Record(WeeklySchedule, [_Field("default", value), _Field("segments", _Array(segment), optional=True)])


def _scenario(schema_version: int, **fields: Any) -> Scenario:
    return Scenario(**fields)


_VELOCITY = _Record(VelocityProfile, [_Field("floor_kmh", _NUMBER), _Field("schedule", _schedule(_NUMBER))])
_CATEGORY = _Record(
    TaskCategory,
    [_Field("id", _INT), _Field("name", _STR), _Field("cat_priority", _NUMBER), _Field("cat_reward", _NUMBER)],
)
_OWNER = _Record(
    TaskOwner,
    [
        _Field("id", _INT),
        _Field("pto_priority", _NUMBER),
        _Field("max_reward_raise", _NUMBER),
        _Field("raise_increment", _NUMBER),
    ],
)
_TRUST = _Record(
    TrustCounters,
    [_Field("assigned", _INT), _Field("accepted", _INT), _Field("completed", _INT), _Field("initial_score", _NUMBER)],
)
_WORKER = _Record(
    Worker,
    [
        _Field("id", _INT),
        _Field("pattern", _schedule(_REGION)),
        _Field("status", _schedule(_NUMBER)),
        _Field("reward_demand", _IdMap(_NUMBER), optional=True),
        _Field("trust", _IdMap(_TRUST), optional=True),
        _Field("bookings", _Array(_BOOKING), optional=True),
    ],
)
_TASK = _Record(
    Task,
    [
        _Field("id", _INT),
        _Field("owner_id", _INT),
        _Field("category_id", _INT),
        _Field("description", _STR),
        _Field("region", _REGION),
        _Field("duration_min", _MINUTES, "duration"),
        _Field("expiration_min", _MINUTES, "expiration"),
        _Field("reward", _NUMBER, "pto_reward"),
        _Field("entered_priority", _NUMBER),
        _Field("submit_min", _MINUTES, "submit_time"),
        _Field("start_earliest_min", _MINUTES, "start_earliest", optional=True),
        _Field("start_latest_min", _MINUTES, "start_latest", optional=True),
    ],
)
_SCENARIO = _Record(
    _scenario,
    [
        _Field("schema_version", _VERSION),
        _Field("units", _STR),
        _Field("extent_km", _Region.shapes["rect"], "extent"),
        _Field("velocity_profile", _VELOCITY, "velocity"),
        _Field("categories", _Array(_CATEGORY)),
        _Field("owners", _Array(_OWNER)),
        _Field("workers", _Array(_WORKER)),
        _Field("tasks", _Array(_TASK)),
    ],
)


def to_json_dict(s: Scenario) -> dict:
    """Scenario as a plain JSON-ready dict (stable layout)."""
    return _SCENARIO.dump(s)


def from_json_dict(doc: Any) -> Scenario:
    """Parse a scenario document; strict about structure and field names."""
    scenario = _SCENARIO.load(doc, "scenario")
    scenario.validate()
    return scenario


def save(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario as deterministic, human-diffable JSON."""
    Path(path).write_text(json.dumps(to_json_dict(scenario), indent=2, sort_keys=True) + "\n")


def load(path: str | Path) -> Scenario:
    """Read and validate a scenario file of UTF-8 JSON."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
        if self.n_workers < 1:
            raise ParameterError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_tasks < 0:
            raise ParameterError(f"n_tasks must be >= 0, got {self.n_tasks}")
        if self.n_categories < 1:
            raise ParameterError(f"n_categories must be >= 1, got {self.n_categories}")
        if self.n_owners < 1:
            raise ParameterError(f"n_owners must be >= 1, got {self.n_owners}")
        if not (0 < self.map_size_km < math.inf):
            raise ParameterError(f"map_size_km must be finite and > 0, got {self.map_size_km}")
        for name in ("fraction_commuters", "urgent_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {v}")
        if not self.status_levels or any(not 0.0 <= s <= 1.0 for s in self.status_levels):
            raise ParameterError(f"status_levels must be non-empty values in [0, 1], got {self.status_levels}")
        for name in ("reward_range", "demand_range", "duration_range", "lead_range", "urgent_lead_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ParameterError(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")
        if not (0 < self.horizon_min < math.inf):
            raise ParameterError(f"horizon_min must be finite and > 0, got {self.horizon_min}")


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
                    Segment(WEEKEND, 540, 1380, hi),
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
