"""Weekly piecewise-constant schedules.

A schedule maps simulation time (minutes, where 0 is Monday 00:00) to a
value and repeats every week.  Segments declare a constant value on
``[start_min, end_min)`` of one or more weekdays; any uncovered time takes
the schedule's default value.  Schedules over numbers additionally support
exact integration via per-piece arithmetic (no quadrature), which is what
availability averaging is built on.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass, field
from types import GenericAlias
from typing import Any, Generic, TypeVar

V = TypeVar("V")

DAY_MINUTES = 1440.0
WEEK_MINUTES = 10080.0

#: Day indices accepted in segments; 0 = Monday ... 6 = Sunday.
ALL_DAYS = frozenset(range(7))
WEEKDAYS = frozenset(range(5))
WEEKEND = frozenset((5, 6))

#: The one day set that every segment holds for each distinct list of days.
#: Only valid sets are entered, so it holds at most 127 (the non-empty
#: subsets of 0..6), and a set found here needs no range check.
_DAY_SETS: dict[frozenset[int], frozenset[int]] = {ALL_DAYS: ALL_DAYS, WEEKDAYS: WEEKDAYS, WEEKEND: WEEKEND}


def _day(d: Any) -> int:
    # True == 1, so a bool would pass for Tuesday and be printed as True.
    if isinstance(d, bool):
        raise ValueError(f"day indices must be integers, got {d!r}")
    try:
        return operator.index(d)
    except TypeError:
        raise ValueError(f"day indices must be integers, got {d!r}") from None


@dataclass(frozen=True)
class Segment(Generic[V]):
    """Constant value on [start_min, end_min) of each listed day (0 = Monday).

    Days are stored as a frozenset of Python ints, shared by every segment
    with the same days, and minutes as floats.
    """

    days: frozenset[int]
    start_min: float
    end_min: float
    value: V

    def __post_init__(self) -> None:
        days = frozenset(map(_day, self.days))
        shared = _DAY_SETS.get(days)
        if shared is None:
            if not days:
                raise ValueError("segment needs at least one day")
            if not days <= ALL_DAYS:
                raise ValueError(f"day indices must be in 0..6, got {sorted(days)}")
            shared = _DAY_SETS.setdefault(days, days)
        object.__setattr__(self, "days", shared)
        if not (0 <= self.start_min < self.end_min <= DAY_MINUTES):
            raise ValueError(
                "segment needs 0 <= start_min < end_min <= 1440, got "
                f"[{self.start_min!r}, {self.end_min!r})"
            )
        object.__setattr__(self, "start_min", float(self.start_min))
        object.__setattr__(self, "end_min", float(self.end_min))


@dataclass(frozen=True, slots=True)
class WeeklySchedule:
    """Immutable weekly schedule of constant pieces.

    Segments that overlap on the same day are rejected at construction, so
    evaluation is unambiguous.  Internally the week is flattened into sorted
    half-open pieces tiling [0, 10080) minutes, as tuples of piece starts,
    ends and values; gaps carry the default value.  Only the segments and
    the default are compared, hashed and printed.
    """

    segments: tuple[Segment, ...] = ()
    default: Any = 0.0
    piece_starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    piece_ends: tuple[float, ...] = field(init=False, repr=False, compare=False)
    piece_values: tuple[Any, ...] = field(init=False, repr=False, compare=False)
    #: Integral from the week's start to each piece start, then to the week's
    #: end; ``None`` for a schedule over something other than numbers.
    piece_prefix: tuple[float, ...] | None = field(init=False, repr=False, compare=False)
    week_integral: float | None = field(init=False, repr=False, compare=False)

    # ``WeeklySchedule[float]`` may name the value type.  The alias is not
    # ``typing.Generic``'s: calling that one sets ``__orig_class__`` on the
    # new record and lets the slotted frozen ``__setattr__``'s TypeError out.
    __class_getitem__ = classmethod(GenericAlias)

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        covered: list[tuple[float, float, Any]] = []
        for seg in segments:
            for day in seg.days:
                covered.append(
                    (day * DAY_MINUTES + seg.start_min, day * DAY_MINUTES + seg.end_min, seg.value)
                )
        covered.sort(key=lambda p: p[0])
        default = self.default
        starts: list[float] = []
        values: list[Any] = []
        cursor = 0.0
        for s, e, v in covered:
            if s < cursor:
                raise ValueError(f"schedule segments overlap: [{starts[-1]:g}, {cursor:g}) and starting at {s:g}")
            if s > cursor:
                starts.append(cursor)
                values.append(default)
            starts.append(s)
            values.append(v)
            cursor = e
        if cursor < WEEK_MINUTES:
            starts.append(cursor)
            values.append(default)
        ends = starts[1:] + [WEEK_MINUTES]

        prefix = week = None
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (*values, default)):
            prefix = tuple(accumulate((float(v) * (e - s) for v, s, e in zip(values, starts, ends)), initial=0.0))
            week = prefix[-1]
        for name, value in (
            ("segments", segments),
            ("piece_starts", tuple(starts)),
            ("piece_ends", tuple(ends)),
            ("piece_values", tuple(values)),
            ("piece_prefix", prefix),
            ("week_integral", week),
        ):
            object.__setattr__(self, name, value)

    # -- value lookup -------------------------------------------------

    def value_at(self, t: float) -> Any:
        """Value at time ``t`` (minutes); the schedule repeats weekly."""
        tm = t % WEEK_MINUTES
        return self.piece_values[min(bisect_right(self.piece_ends, tm), len(self.piece_values) - 1)]

    # -- exact integration (numeric schedules only) --------------------

    def cumulative(self, t: float) -> float:
        """Exact integral of the schedule from time 0 to ``t``."""
        if self.piece_prefix is None:
            raise TypeError("cumulative() needs a schedule over numbers")
        nw = math.floor(t / WEEK_MINUTES)
        tm = t - nw * WEEK_MINUTES
        i = min(bisect_right(self.piece_ends, tm), len(self.piece_values) - 1)
        return (
            nw * self.week_integral
            + self.piece_prefix[i]
            + float(self.piece_values[i]) * (tm - self.piece_starts[i])
        )

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral over [t0, t1]; requires t0 <= t1."""
        if t1 < t0:
            raise ValueError(f"integral needs t0 <= t1, got [{t0!r}, {t1!r}]")
        return self.cumulative(t1) - self.cumulative(t0)


def availability_score(status: WeeklySchedule, t: float, expiration: float) -> float:
    """Mean declared availability over [t, expiration); 0 for an empty window."""
    if expiration <= t:
        return 0.0
    return (status.cumulative(expiration) - status.cumulative(t)) / (expiration - t)
