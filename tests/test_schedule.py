"""Weekly schedule: lookups, exact integration, and periodicity properties."""

import dataclasses
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdsim.model import Point, Worker
from crowdsim.schedule import (
    ALL_DAYS,
    WEEK_MINUTES,
    Segment,
    WeeklySchedule,
    availability_score,
)
from crowdsim.scoring import VelocityProfile


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(frozenset({7}), 0, 60, 1.0)
    with pytest.raises(ValueError):
        Segment(frozenset(), 0, 60, 1.0)
    with pytest.raises(ValueError):
        Segment(frozenset({0}), 60, 60, 1.0)
    with pytest.raises(ValueError):
        Segment(frozenset({0}), 0, 1441, 1.0)


def test_overlapping_segments_rejected():
    with pytest.raises(ValueError, match="overlap"):
        WeeklySchedule(
            (Segment(frozenset({0}), 0, 100, 1.0), Segment(frozenset({0}), 50, 150, 0.5)),
            default=0.0,
        )


def test_value_at_basic():
    s = WeeklySchedule((Segment(frozenset({0}), 540, 550, 0.9),), default=0.0)
    assert s.value_at(540.0) == 0.9
    assert s.value_at(549.999) == 0.9
    assert s.value_at(550.0) == 0.0  # half-open on the right
    assert s.value_at(539.0) == 0.0
    assert s.value_at(540.0 + WEEK_MINUTES) == 0.9  # periodic


def test_value_at_day_boundaries():
    s = WeeklySchedule((Segment(frozenset({1}), 0, 1440, 5.0),), default=1.0)
    assert s.value_at(1439.999) == 1.0  # late Monday
    assert s.value_at(1440.0) == 5.0  # Tuesday 00:00
    assert s.value_at(2879.0) == 5.0
    assert s.value_at(2880.0) == 1.0  # Wednesday


def test_integral_exact_simple():
    # 0.9 for ten Monday minutes, zero elsewhere.
    s = WeeklySchedule((Segment(frozenset({0}), 540, 550, 0.9),), default=0.0)
    assert s.integral(540.0, 550.0) == pytest.approx(9.0, abs=1e-12)
    assert s.integral(0.0, WEEK_MINUTES) == pytest.approx(9.0, abs=1e-12)
    assert s.integral(545.0, 546.0) == pytest.approx(0.9, abs=1e-12)
    assert s.integral(600.0, 700.0) == 0.0


def test_integral_across_week_wrap():
    # Half status on Monday mornings; integrate across the Sunday->Monday seam.
    s = WeeklySchedule((Segment(frozenset({0}), 0, 720, 0.5),), default=0.0)
    got = s.integral(WEEK_MINUTES - 60.0, WEEK_MINUTES + 60.0)
    assert got == pytest.approx(30.0, abs=1e-12)
    assert availability_score(s, WEEK_MINUTES - 60.0, WEEK_MINUTES + 60.0) == pytest.approx(0.25)


def test_integral_rejects_reversed_interval():
    s = WeeklySchedule((), default=1.0)
    with pytest.raises(ValueError):
        s.integral(10.0, 5.0)


def test_cumulative_requires_numeric_values():
    s = WeeklySchedule((), default="home")
    assert s.value_at(10.0) == "home"
    with pytest.raises(TypeError):
        s.cumulative(10.0)


def test_availability_score_degenerate_window():
    s = WeeklySchedule((), default=1.0)
    assert availability_score(s, 100.0, 100.0) == 0.0
    assert availability_score(s, 100.0, 50.0) == 0.0


# -- property tests ----------------------------------------------------------

_segment_lists = st.lists(
    st.tuples(
        st.sets(st.integers(0, 6), min_size=1, max_size=7),
        st.integers(0, 1438),
        st.integers(1, 1440),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    max_size=4,
)


def _build(seg_specs, default):
    segments = []
    for days, a, b, v in seg_specs:
        lo, hi = (a, b) if a < b else (b, a)
        if lo == hi:
            hi = lo + 1
        segments.append(Segment(frozenset(days), float(lo), float(min(hi, 1440)), v))
    try:
        return WeeklySchedule(tuple(segments), default)
    except ValueError:
        return None  # overlapping draw; skip


@settings(max_examples=300, deadline=None)
@given(_segment_lists, st.floats(0.0, 1.0), st.floats(0.0, 20160.0), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
def test_integral_additivity(specs, default, t0, d1, d2):
    s = _build(specs, default)
    if s is None:
        return
    t1, t2 = t0 + d1, t0 + d1 + d2
    whole = s.integral(t0, t2)
    parts = s.integral(t0, t1) + s.integral(t1, t2)
    assert math.isclose(whole, parts, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(whole)))


@settings(max_examples=300, deadline=None)
@given(_segment_lists, st.floats(0.0, 1.0), st.floats(0.0, WEEK_MINUTES))
def test_week_periodicity(specs, default, t):
    s = _build(specs, default)
    if s is None:
        return
    assert s.value_at(t) == s.value_at(t + WEEK_MINUTES)
    one_week = s.integral(0.0, WEEK_MINUTES)
    shifted = s.integral(t, t + WEEK_MINUTES)
    assert math.isclose(one_week, shifted, rel_tol=0.0, abs_tol=1e-6)


@settings(max_examples=300, deadline=None)
@given(_segment_lists, st.floats(0.0, 1.0), st.floats(0.0, 20160.0), st.floats(0.0, 10000.0))
def test_integral_bounded_by_range(specs, default, t0, d):
    s = _build(specs, default)
    if s is None:
        return
    got = s.integral(t0, t0 + d)
    assert -1e-9 <= got <= d + 1e-9
    if d > 0:
        avail = availability_score(s, t0, t0 + d)
        assert -1e-12 <= avail <= 1.0 + 1e-12


def test_full_coverage_tiles_week():
    s = WeeklySchedule((Segment(ALL_DAYS, 0, 1440, 0.5),), default=0.9)
    # The default never shows through a full tiling.
    assert s.integral(0.0, WEEK_MINUTES) == pytest.approx(0.5 * WEEK_MINUTES)


def test_value_at_just_below_zero_is_the_last_piece():
    # -1e-13 % 10080.0 rounds up to 10080.0; the lookup clamps like cumulative().
    s = WeeklySchedule((Segment(frozenset({6}), 1380, 1440, 0.25),), default=0.75)
    assert -1e-13 % WEEK_MINUTES == WEEK_MINUTES
    assert s.value_at(-1e-13) == 0.25
    assert s.cumulative(-1e-13) == pytest.approx(0.0, abs=1e-9)


def test_schedules_compare_and_hash_on_segments_and_default():
    seg = Segment(frozenset({0}), 540, 550, 0.9)
    as_list = WeeklySchedule([seg], default=0.0)
    as_tuple = WeeklySchedule((seg,), default=0.0)
    assert as_list == as_tuple
    assert hash(as_list) == hash(as_tuple)
    assert as_list.segments == (seg,)
    assert as_list != WeeklySchedule((seg,), default=0.1)
    assert repr(as_list) == f"WeeklySchedule(segments=({seg!r},), default=0.0)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        as_list.default = 1.0


def test_pieces_are_tuples_of_floats():
    s = WeeklySchedule((Segment(frozenset({0}), 540, 550, 1),), default=0)
    assert s.piece_starts == (0.0, 540.0, 550.0)
    assert s.piece_ends == (540.0, 550.0, WEEK_MINUTES)
    assert s.piece_values == (0, 1, 0)
    assert s.piece_prefix == (0.0, 0.0, 10.0, 10.0)
    for pieces in (s.piece_starts, s.piece_ends, s.piece_prefix):
        assert type(pieces) is tuple and all(type(x) is float for x in pieces)
    assert type(s.week_integral) is float
    places = WeeklySchedule((), default="home")
    assert places.piece_values == ("home",)
    assert places.piece_prefix is None and places.week_integral is None


def test_annotations_resolve():
    for obj in (availability_score, VelocityProfile, Worker, WeeklySchedule):
        assert typing.get_type_hints(obj)


def test_every_spelling_of_the_constructor_builds_the_same_schedule():
    # Calling the subscripted alias sets __orig_class__ on the new object;
    # that must not reach the frozen record's __setattr__ as an error.
    seg = Segment(frozenset({0}), 60, 120, 0.5)
    spellings = [
        WeeklySchedule((seg,), 1.0),
        WeeklySchedule(segments=(seg,), default=1.0),
        WeeklySchedule[float]((seg,), 1.0),
        WeeklySchedule[float](segments=[seg], default=1.0),
    ]
    assert all(s == spellings[0] and s.piece_values == (1.0, 0.5, 1.0) for s in spellings)
    assert WeeklySchedule() == WeeklySchedule[float]() == WeeklySchedule((), 0.0)
    assert WeeklySchedule[Point](default=Point(1.0, 2.0)).value_at(0.0) == Point(1.0, 2.0)
