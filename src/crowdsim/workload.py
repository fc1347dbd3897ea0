"""Scenario container, JSON serialization, and the seeded workload generator.

A scenario file is a single JSON object; all times are integer minutes, all
coordinates kilometres.  Parsing is strict — any unknown or ill-typed field
fails with an error naming the offending location — and loading re-runs the
full semantic validation from ``model``.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import count, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, NamedTuple, NoReturn

from .model import (
    KM_PER_MILE,
    MAX_COORDINATE_KM,
    MAX_TIME_MIN,
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
#
# A codec's ``load(v, parent, key)`` reads the value found under ``key`` in
# the container at location ``parent``.  A location is the chain of
# ``(parent, key)`` pairs up to the root key ``"scenario"``, whose parent is
# ``None``; ``_where`` spells it out only when an error is raised.  A codec's
# ``emit(value, pad)`` returns the value's text as the json module writes it
# with a two-space indent and sorted keys, where ``pad`` is the indentation
# of the line the value starts on.

_INDENT = "  "
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _where(parent: Any, key: str | int) -> str:
    """Spell out a location: ``scenario.tasks[0].region``."""
    parts = []
    while parent is not None:
        parts.append(f"[{key}]" if type(key) is int else f".{key}")
        parent, key = parent
    parts.append(key)
    return "".join(reversed(parts))


def _fail(parent: Any, key: str | int, msg: str) -> NoReturn:
    raise ScenarioFormatError(f"{_where(parent, key)}: {msg}")


def _obj(v: Any, parent: Any, key: str | int, required: tuple[str, ...], allowed: frozenset[str]) -> None:
    if not isinstance(v, dict):
        _fail(parent, key, f"expected an object, got {type(v).__name__}")
    for field in required:
        if field not in v:
            _fail(parent, key, f"missing field '{field}'")
    if not allowed.issuperset(v):
        _fail(parent, key, f"unknown field '{next(field for field in v if field not in allowed)}'")


def _list(v: Any, parent: Any, key: str | int) -> list:
    if not isinstance(v, list):
        _fail(parent, key, f"expected an array, got {type(v).__name__}")
    return v


# Each scalar loader returns the common case after one type test; only a
# value that fails it reaches the checks below that test.


def _finite(v: int | float, parent: Any, key: str | int) -> float:
    # json reads NaN, Infinity and integers too large for a float.
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        _fail(parent, key, f"expected a finite number, got {v!r}")
    return f


def _num(v: Any, parent: Any, key: str | int) -> float:
    if type(v) is float and v - v == 0.0:  # NaN - NaN and inf - inf are NaN
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(parent, key, f"expected a number, got {v!r}")
    return _finite(v, parent, key)


def _int_minutes(v: Any, parent: Any, key: str | int) -> float:
    if type(v) is int and -MAX_TIME_MIN < v < MAX_TIME_MIN:
        return float(v)
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(parent, key, f"times must be integer minutes, got {v!r}")
    return _finite(v, parent, key)


def _int(v: Any, parent: Any, key: str | int) -> int:
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
        _fail(parent, key, f"expected an integer, got {v!r}")
    return v


def _str(v: Any, parent: Any, key: str | int) -> str:
    if not isinstance(v, str):
        _fail(parent, key, f"expected a string, got {v!r}")
    return v


def _version(v: Any, parent: Any, key: str | int) -> int:
    version = _int(v, parent, key)
    if version != SCHEMA_VERSION:
        _fail(parent, key, f"unsupported version {version}, expected {SCHEMA_VERSION}")
    return version


def _float_text(v: Any) -> str:
    text = repr(float(v))
    return _NON_FINITE[text] if "n" in text else text  # "nan", "inf", "-inf"


def _minutes_text(v: float) -> str:
    # "%d" % v writes int(v): a fractional minute would be cut, so it is refused.
    if not (math.isfinite(v) and v == int(v)):
        raise ValueError(f"cannot save {v!r} minutes: scenario files hold integer minutes")
    return "%d" % v


def _str_text(v: Any) -> str:
    return encode_basestring_ascii(str(v))


def _block(open_: str, items: list[str], close: str, pad: str, inner: str) -> str:
    """An array or object of already written items, one per line at ``inner``."""
    if not items:
        return open_ + close
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{close}"


class _Scalar:
    """A JSON scalar: ``load(value, parent, key)`` checks and converts, ``text(value)`` writes."""

    def __init__(self, load: Callable[[Any, Any, str | int], Any], text: Callable[[Any], str]):
        self.load = load
        self.text = text

    def emit(self, value: Any, pad: str) -> str:
        return self.text(value)


_NUMBER = _Scalar(_num, _float_text)
_INT = _Scalar(_int, "%d".__mod__)
_STR = _Scalar(_str, _str_text)
_MINUTES = _Scalar(_int_minutes, _minutes_text)
_VERSION = _Scalar(_version, "%d".__mod__)


class _Array:
    """A JSON array of one item codec; item ``i`` is located at ``[i]`` of the array."""

    def __init__(self, item: _Codec, sort: bool = False):
        self.item = item
        self.sort = sort

    def load(self, v: Any, parent: Any, key: str | int) -> list:
        _list(v, parent, key)
        return list(map(self.item.load, v, repeat((parent, key)), count()))

    def emit(self, values: Iterable, pad: str) -> str:
        inner, item = pad + _INDENT, self.item
        if self.sort:
            values = sorted(values)
        return _block("[", [item.emit(x, inner) for x in values], "]", pad, inner)


class _Tuple:
    """A fixed-length JSON array of scalars built into one value by ``make(*items)``."""

    def __init__(
        self, make: Callable, parts: Callable[[Any], tuple], n: int, item: _Codec = _NUMBER, shape: str = ""
    ):
        self.make = make
        self.parts = parts
        self.n = n
        self.item = item
        self.shape = shape or f"{n} numbers"

    def load(self, v: Any, parent: Any, key: str | int) -> Any:
        if len(_list(v, parent, key)) != self.n:
            _fail(parent, key, f"expected {self.shape}, got {len(v)}")
        items = list(map(self.item.load, v, repeat((parent, key)), count()))
        try:
            return self.make(*items)
        except ValueError as exc:
            raise ScenarioFormatError(f"{_where(parent, key)}: {exc}") from None

    def emit(self, value: Any, pad: str) -> str:
        return _block("[", list(map(self.item.text, self.parts(value))), "]", pad, pad + _INDENT)


class _Region:
    """A region: an object with exactly one key, which names its shape."""

    shapes = {
        "point": _Tuple(Point, attrgetter("x", "y"), 2),
        "rect": _Tuple(Rect, attrgetter("min_x", "min_y", "max_x", "max_y"), 4),
        "disc": _Tuple(Disc, attrgetter("cx", "cy", "radius"), 3),
    }
    allowed = frozenset(shapes)
    by_type = {shape.make: (f'"{key}": ', shape) for key, shape in shapes.items()}

    def load(self, v: Any, parent: Any, key: str | int) -> Region:
        _obj(v, parent, key, (), self.allowed)
        if len(v) != 1:
            _fail(parent, key, "region must have exactly one of 'point', 'rect', 'disc'")
        ((shape, value),) = v.items()
        return self.shapes[shape].load(value, (parent, key), shape)

    def emit(self, region: Region, pad: str) -> str:
        try:
            name, shape = self.by_type[type(region)]
        except KeyError:
            raise TypeError(f"not a region: {region!r}") from None
        inner = pad + _INDENT
        return _block("{", [name + shape.emit(region, inner)], "}", pad, inner)


class _IdMap:
    """A JSON object keyed by integer ids written as strings; entry ``k`` is located at ``[k]`` of the map."""

    def __init__(self, item: _Codec):
        self.item = item

    def load(self, v: Any, parent: Any, key: str | int) -> dict[int, Any]:
        if not isinstance(v, dict):
            _fail(parent, key, f"expected an object, got {type(v).__name__}")
        loc, load = (parent, key), self.item.load
        out = {}
        for k, x in v.items():
            try:
                i = int(k)
            except ValueError:
                i = None
            if str(i) != k:  # "01", " 1 " or "1_0" would alias another key
                _fail(parent, key, f"key {k!r} is not an integer id")
            out[i] = load(x, loc, i)
        return out

    def emit(self, mapping: dict[int, Any], pad: str) -> str:
        # sort_keys orders the keys as strings, so "10" comes before "2".
        inner, emit = pad + _INDENT, self.item.emit
        entries = sorted(((str(k), x) for k, x in mapping.items()), key=itemgetter(0))
        items = [f"{encode_basestring_ascii(k)}: {emit(x, inner)}" for k, x in entries]
        return _block("{", items, "}", pad, inner)


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
    ``.key`` of the record and calls ``make`` once; only ``make``'s own
    ``ValueError`` is located at the record.  Emitting writes, in key order,
    every field whose attribute is not ``None``.
    """

    def __init__(self, make: Callable[..., Any], fields: Iterable[_Field]):
        fields = tuple(fields)
        self.make = make
        self.required = tuple(f.key for f in fields if not f.optional)
        self.required_set = frozenset(self.required)
        self.allowed = frozenset(f.key for f in fields)
        self.plan = tuple((f.key, f.attr or f.key, f.codec.load) for f in fields)
        by_key = sorted(fields, key=attrgetter("key"))
        self.emit_plan = tuple((f'"{f.key}": ', getattr(f.codec, "text", None), f.codec.emit) for f in by_key)
        self.values = attrgetter(*(f.attr or f.key for f in by_key))

    def load(self, v: Any, parent: Any, key: str | int) -> Any:
        if type(v) is not dict or not v.keys() >= self.required_set or not self.allowed.issuperset(v):
            _obj(v, parent, key, self.required, self.allowed)
        loc, kwargs = (parent, key), {}
        for k, attr, load in self.plan:
            if k in v:
                kwargs[attr] = load(v[k], loc, k)
        try:
            return self.make(**kwargs)
        except ValueError as exc:
            raise ScenarioFormatError(f"{_where(parent, key)}: {exc}") from None

    def emit(self, record: Any, pad: str) -> str:
        inner = pad + _INDENT
        items = []
        for (name, text, emit), value in zip(self.emit_plan, self.values(record)):
            if value is not None:
                items.append(name + (text(value) if text else emit(value, inner)))
        return _block("{", items, "}", pad, inner)


_Codec = _Scalar | _Array | _Tuple | _Region | _IdMap | _Record

_REGION = _Region()
_DAYS = _Array(_INT, sort=True)
_BOOKING = _Tuple(lambda start, end: (start, end), tuple, 2, _MINUTES, "[start, end]")


#: The numeric schedules built so far by the ``from_json_dict`` call under
#: way, keyed on their fields; unset outside such a call.
_SCHEDULES: ContextVar[dict[tuple, WeeklySchedule]] = ContextVar("_SCHEDULES")


def _shared_schedule(default: float, segments: Iterable[Segment] = ()) -> WeeklySchedule:
    """The schedule record already built in this call for an exactly equal
    declaration, or a new one: a population declares few distinct answers."""
    segments = tuple(segments)
    schedules = _SCHEDULES.get()
    # 0.0 == -0.0, but they print apart, so values are keyed on their text;
    # minutes are read from integers, and days are shared sets of ints.
    key = (repr(default), *[(s.days, s.start_min, s.end_min, repr(s.value)) for s in segments])
    schedule = schedules.get(key)
    if schedule is None:
        schedule = schedules[key] = WeeklySchedule(segments, default)
    return schedule


def _schedule(value: _Codec, make: Callable[..., WeeklySchedule]) -> _Record:
    segment = _Record(
        Segment,
        [_Field("days", _DAYS), _Field("start_min", _MINUTES), _Field("end_min", _MINUTES), _Field("value", value)],
    )
    return _Record(make, [_Field("default", value), _Field("segments", _Array(segment), optional=True)])


def _scenario(schema_version: int, **fields: Any) -> Scenario:
    return Scenario(**fields)


_NUMERIC_SCHEDULE = _schedule(_NUMBER, _shared_schedule)
_VELOCITY = _Record(VelocityProfile, [_Field("floor_kmh", _NUMBER), _Field("schedule", _NUMERIC_SCHEDULE)])
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
        # Each pattern holds its worker's own places, so patterns are not shared.
        _Field("pattern", _schedule(_REGION, WeeklySchedule)),
        _Field("status", _NUMERIC_SCHEDULE),
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
    """Scenario as a plain JSON-ready dict: the document that ``save`` writes."""
    return json.loads(_SCENARIO.emit(s, ""))


def from_json_dict(doc: Any) -> Scenario:
    """Parse a scenario document; strict about structure and field names.

    Equal numeric schedules (status and speed) declared in the document load
    as one immutable record, and equal day lists as one day set, so workers
    may share schedule records: compare schedules with ``==``, not ``is``.
    Each call builds its own records; no two calls share a schedule.
    """
    token = _SCHEDULES.set({})
    try:
        scenario = _SCENARIO.load(doc, None, "scenario")
    finally:
        _SCHEDULES.reset(token)
    scenario.validate()
    return scenario


def save(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario as deterministic, human-diffable JSON: the json
    module's bytes for ``to_json_dict(scenario)`` with a two-space indent and
    sorted keys, plus a newline.  A minute that is not a whole number raises
    ``ValueError`` before any byte is written: files hold integer minutes."""
    Path(path).write_text(_SCENARIO.emit(scenario, "") + "\n")


@contextmanager
def _cyclic_gc_paused():
    """Pause cyclic GC, and restore the caller's state on the way out.

    Scenario records hold no reference cycles, but a generated or loaded
    week adds about 100k tracked objects, which every full collection
    would traverse while they are built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object's pairs as a dict; json alone keeps the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _v in pairs]
        raise ValueError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


@_cyclic_gc_paused()
def load(path: str | Path) -> Scenario:
    """Read and validate a scenario file of UTF-8 JSON; records are shared
    as ``from_json_dict`` says.  A key that appears twice in one object is
    a ``ScenarioFormatError``, not a silent last-one-wins."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # ValueError covers decoding and duplicate keys
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
        for name, least in (("n_workers", 1), ("n_tasks", 0), ("n_categories", 1), ("n_owners", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise ParameterError(f"{name} must be >= {least}, got {v}")
        if not (0 < self.map_size_km <= MAX_COORDINATE_KM):
            raise ParameterError(
                f"map_size_km must be finite and > 0 and <= {MAX_COORDINATE_KM:g}, got {self.map_size_km}"
            )
        for name in ("fraction_commuters", "urgent_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {v}")
        if not self.status_levels or any(not 0.0 <= s <= 1.0 for s in self.status_levels):
            raise ParameterError(f"status_levels must be non-empty values in [0, 1], got {self.status_levels}")
        for name in ("reward_range", "demand_range", "duration_range", "lead_range", "urgent_lead_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi <= sys.float_info.max:
                raise ParameterError(f"{name} must satisfy 0 < lo <= hi, both finite, got {(lo, hi)}")
        # Money is drawn to the cent and minutes are drawn whole.
        for name in ("reward_range", "demand_range"):
            if not round(getattr(self, name)[0], 2) > 0:
                raise ParameterError(f"{name} must start at a value that rounds to a cent, got {getattr(self, name)}")
        for name in ("duration_range", "lead_range", "urgent_lead_range"):
            if not all(isinstance(v, int) for v in getattr(self, name)):
                raise ParameterError(f"{name} must hold integer minutes, got {getattr(self, name)}")
        if not (0 < self.horizon_min < math.inf):
            raise ParameterError(f"horizon_min must be finite and > 0, got {self.horizon_min}")
        # A task is submitted before the horizon's last whole minute and expires at most the longest lead later.
        longest = max(self.lead_range[1], self.urgent_lead_range[1], self.duration_range[1] + 1)
        if not (1 <= self.horizon_min and int(self.horizon_min) + longest <= MAX_TIME_MIN):
            raise ParameterError(
                f"horizon_min must be at least 1 and, plus the longest lead that lead_range, urgent_lead_range and "
                f"duration_range allow ({longest} minutes), at most 2**53 minutes, got {self.horizon_min}"
            )


def _count(n: int, fraction: float) -> int:
    # floor() on the nudged product so 100 * 0.29 counts as 29, not 28.
    return math.floor(n * fraction + 1e-9)


@_cyclic_gc_paused()
def generate(params: GenParams, seed: int) -> Scenario:
    """Draw a random but fully reproducible scenario.

    The draw order is fixed (categories, owners, workers, tasks, each field
    in declaration order), so adding entities never reshuffles earlier ones
    for the same seed.  Workers answer the status questionnaire alike: all
    commuters share one status record, and non-commuters with the same
    start of their active window share another.
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
    commuter_status = WeeklySchedule(
        (
            Segment(WEEKDAYS, 420, 540, mid),
            Segment(WEEKDAYS, 540, 1020, lo),
            Segment(WEEKDAYS, 1020, 1380, hi),
            Segment(WEEKEND, 540, 1380, hi),
        ),
        default=lo,
    )
    active_status: dict[int, WeeklySchedule] = {}  # by the active window's start
    workers = []
    for i in range(1, params.n_workers + 1):
        home = pt()
        if i <= n_commuters:
            work = pt()
            pattern = WeeklySchedule(
                (Segment(WEEKDAYS, 540, 1020, work),),
                default=home,
            )
            status = commuter_status
        else:
            # Non-commuters keep one 10-hour active window per day, offset
            # per worker so the population mixes active and idle people at
            # any given hour.
            w0 = rng.randrange(360, 721, 60)
            pattern = WeeklySchedule((), default=home)
            status = active_status.get(w0)
            if status is None:
                status = active_status[w0] = WeeklySchedule(
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
