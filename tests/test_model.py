"""Entity construction, distances, and scenario validation."""

import math
from dataclasses import replace

import pytest

from crowdsim.model import (
    MAX_COORDINATE_KM,
    MAX_TIME_MIN,
    Disc,
    Point,
    Rect,
    Task,
    TaskCategory,
    TaskOwner,
    TrustCounters,
    Worker,
    centroid,
    distance,
    validate_scenario,
)
from crowdsim.schedule import Segment, WeeklySchedule


def test_region_centroids():
    assert centroid(Point(2.0, 3.0)) == Point(2.0, 3.0)
    assert centroid(Rect(0.0, 0.0, 4.0, 2.0)) == Point(2.0, 1.0)
    assert centroid(Disc(1.0, -1.0, 5.0)) == Point(1.0, -1.0)


def test_centroid_rejects_a_place_that_is_not_a_region():
    with pytest.raises(TypeError, match="not a region: 'home'"):
        centroid("home")


def test_region_validation():
    with pytest.raises(ValueError):
        Rect(3.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Disc(0.0, 0.0, -1.0)


def test_distance_between_region_centroids():
    assert distance(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0
    assert distance(Rect(0.0, 0.0, 2.0, 2.0), Disc(1.0, 5.0, 2.0)) == 4.0
    assert distance(Point(1.0, 1.0), Point(1.0, 1.0)) == 0.0


def _mini_scenario():
    categories = [TaskCategory(1, "errand", 0.8, 5.0)]
    owners = [TaskOwner(1, pto_priority=0.5, max_reward_raise=2.0, raise_increment=1.0)]
    workers = [
        Worker(
            id=1,
            pattern=WeeklySchedule((), default=Point(0.0, 0.0)),
            status=WeeklySchedule((), default=0.5),
            reward_demand={1: 3.0},
            trust={1: TrustCounters(assigned=4, accepted=3, completed=2, initial_score=0.5)},
        )
    ]
    tasks = [
        Task(
            id=1,
            owner_id=1,
            category_id=1,
            description="x",
            region=Point(1.0, 1.0),
            duration=30.0,
            expiration=200.0,
            pto_reward=6.0,
            entered_priority=0.9,
            submit_time=0.0,
        )
    ]
    return tasks, workers, owners, categories


def test_validate_clean_scenario():
    assert validate_scenario(*_mini_scenario()) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t, w, o, c: c.append(TaskCategory(1, "dup", 0.5, 1.0)), "duplicate"),
        (lambda t, w, o, c: c.append(TaskCategory(2, "bad", 1.5, 1.0)), "cat_priority"),
        (lambda t, w, o, c: c.append(TaskCategory(3, "bad", 0.5, 0.0)), "cat_reward"),
        (lambda t, w, o, c: o.append(TaskOwner(1, 0.5, 0.0, 1.0)), "duplicate"),
        (lambda t, w, o, c: o.append(TaskOwner(2, 0.0, 0.0, 1.0)), "pto_priority"),
        (lambda t, w, o, c: o.append(TaskOwner(3, 0.5, -1.0, 1.0)), "max_reward_raise"),
        (lambda t, w, o, c: o.append(TaskOwner(4, 0.5, 1.0, 0.0)), "raise_increment"),
        (lambda t, w, o, c: w.append(w[0]), "duplicate"),
        (lambda t, w, o, c: t.append(t[0]), "duplicate"),
        (
            lambda t, w, o, c: w.append(replace(w[0], id=2, trust={9: TrustCounters()})),
            "trust counters for unknown category",
        ),
        (
            lambda t, w, o, c: w.append(replace(w[0], id=2, trust={1: TrustCounters(-1, -1, -1)})),
            "trust counters must be >= 0",
        ),
        (lambda t, w, o, c: w.append(replace(w[0], id=2, bookings=[(50.0, 60.0), (10.0, 20.0)])), "sorted"),
    ],
)
def test_validate_flags_bad_entities(mutate, fragment):
    tasks, workers, owners, categories = _mini_scenario()
    mutate(tasks, workers, owners, categories)
    messages = " | ".join(str(v) for v in validate_scenario(tasks, workers, owners, categories))
    assert fragment in messages


def test_validate_worker_issues():
    tasks, workers, owners, categories = _mini_scenario()
    workers.append(
        Worker(
            id=2,
            pattern=WeeklySchedule((), default=Point(0.0, 0.0)),
            status=WeeklySchedule((Segment(frozenset({0}), 0, 10, 1.5),), default=0.0),
            reward_demand={9: 1.0},
            trust={1: TrustCounters(assigned=1, accepted=2, completed=0)},
            bookings=[(5.0, 2.0)],
        )
    )
    text = " | ".join(str(v) for v in validate_scenario(tasks, workers, owners, categories))
    assert "status" in text
    assert "unknown category" in text
    assert "accepted" in text
    assert "booking" in text


def test_validate_task_issues():
    tasks, workers, owners, categories = _mini_scenario()
    tasks.append(
        Task(
            id=2,
            owner_id=7,
            category_id=9,
            description="bad",
            region=Point(0.0, 0.0),
            duration=-5.0,
            expiration=10.0,
            pto_reward=0.0,
            entered_priority=2.0,
            submit_time=50.0,
            start_earliest=40.0,
            start_latest=20.0,
        )
    )
    text = " | ".join(str(v) for v in validate_scenario(tasks, workers, owners, categories))
    for needle in ("unknown owner", "unknown category", "duration", "reward", "entered_priority", "submit", "start"):
        assert needle in text, f"missing {needle!r} in: {text}"


def test_worker_trust_default_for_unseen_category():
    _, workers, _, _ = _mini_scenario()
    w = workers[0]
    fresh = w.trust_for(99)
    assert fresh.assigned == 0 and fresh.initial_score == 0.5
    assert w.trust_for(1).assigned == 4


def test_worker_home_is_pattern_default():
    _, workers, _, _ = _mini_scenario()
    assert workers[0].home == Point(0.0, 0.0)


def test_distance_uses_expected_region_over_time():
    work = Point(10.0, 0.0)
    home = Point(0.0, 0.0)
    w = Worker(
        id=1,
        pattern=WeeklySchedule((Segment(frozenset({0}), 540, 1020, work),), default=home),
        status=WeeklySchedule((), default=1.0),
        reward_demand={},
        trust={},
    )
    assert w.pattern.value_at(600.0) == work
    assert w.pattern.value_at(100.0) == home
    assert math.isclose(distance(Point(0.0, 0.0), w.pattern.value_at(600.0)), 10.0)


def test_validate_rejects_negative_submit_time():
    tasks, workers, owners, categories = _mini_scenario()
    tasks[0] = replace(tasks[0], submit_time=-1.0)
    assert [str(v) for v in validate_scenario(tasks, workers, owners, categories)] == [
        "task 1: submit_time must be >= 0, got -1.0"
    ]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t, w, o, c: t.append(replace(t[0], id=2, pto_reward=math.nan)), "pto_reward"),
        (lambda t, w, o, c: t.append(replace(t[0], id=2, duration=math.nan)), "duration"),
        (lambda t, w, o, c: t.append(replace(t[0], id=2, submit_time=math.nan)), "submit_time"),
        (lambda t, w, o, c: c.append(TaskCategory(2, "nan", 0.5, math.nan)), "cat_reward"),
        (lambda t, w, o, c: o.append(TaskOwner(2, 0.5, math.nan, 1.0)), "max_reward_raise"),
        (lambda t, w, o, c: o.append(TaskOwner(3, 0.5, 1.0, math.nan)), "raise_increment"),
        (lambda t, w, o, c: w[0].reward_demand.__setitem__(1, math.nan), "reward demand"),
    ],
)
def test_validate_rejects_nan(mutate, fragment):
    tasks, workers, owners, categories = _mini_scenario()
    mutate(tasks, workers, owners, categories)
    messages = " | ".join(str(v) for v in validate_scenario(tasks, workers, owners, categories))
    assert fragment in messages and "nan" in messages, messages


@pytest.mark.parametrize("field", ["pto_reward", "duration"])
def test_validate_rejects_infinity(field):
    # An infinite reward made the online raise check fail mid-run, and an
    # infinite duration put NaN totals in the kernel.
    tasks, workers, owners, categories = _mini_scenario()
    tasks.append(replace(tasks[0], id=2, **{field: math.inf}))
    messages = " | ".join(str(v) for v in validate_scenario(tasks, workers, owners, categories))
    assert field in messages and "inf" in messages, messages


@pytest.mark.parametrize(
    "mutate, want",
    [
        (
            lambda t, w, o, c: c.append(TaskCategory(2, "inf", 0.5, math.inf)),
            "category 2: cat_reward must be finite and > 0, got inf",
        ),
        (
            lambda t, w, o, c: o.append(TaskOwner(2, 0.5, math.inf, 1.0)),
            "owner 2: max_reward_raise must be finite and >= 0, got inf",
        ),
        (
            lambda t, w, o, c: o.append(TaskOwner(3, 0.5, 1.0, math.inf)),
            "owner 3: raise_increment must be finite and > 0, got inf",
        ),
        (
            lambda t, w, o, c: w[0].reward_demand.__setitem__(1, math.inf),
            "worker 1: reward demand must be finite and >= 0, got inf",
        ),
    ],
    ids=["cat_reward", "max_reward_raise", "raise_increment", "reward_demand"],
)
def test_validate_rejects_infinite_people_and_category_numbers(mutate, want):
    # An infinite demand against an infinite raise budget kept the online
    # raise loop from ever ending.
    tasks, workers, owners, categories = _mini_scenario()
    mutate(tasks, workers, owners, categories)
    assert [str(v) for v in validate_scenario(tasks, workers, owners, categories)] == [want]


@pytest.mark.parametrize("field", ["submit_time", "expiration", "start_earliest", "start_latest", "booking"])
def test_validate_rejects_times_at_the_float_limit(field):
    # From 2**53 minutes on, adding a grid step can round back to the same
    # time, and an online retry would never move the clock on.
    tasks, workers, owners, categories = _mini_scenario()
    below = MAX_TIME_MIN - 1.0
    times = {"submit_time": 0.0, "expiration": below, "start_earliest": below, "start_latest": below}
    tasks[0] = replace(tasks[0], **times)
    workers[0] = replace(workers[0], bookings=[(below - 5.0, below)])
    assert validate_scenario(tasks, workers, owners, categories) == []
    if field == "booking":
        workers[0] = replace(workers[0], bookings=[(below, MAX_TIME_MIN)])
        want = f"worker {workers[0].id}: booking end must be below 2**53 minutes, got {MAX_TIME_MIN}"
    else:
        times[field] = MAX_TIME_MIN
        tasks[0] = replace(tasks[0], **{**times, "expiration": MAX_TIME_MIN})
        want = f"task 1: {field} must be below 2**53 minutes, got {MAX_TIME_MIN}"
    assert want in [str(v) for v in validate_scenario(tasks, workers, owners, categories)]


@pytest.mark.parametrize("field", ["start_earliest", "start_latest"])
def test_validate_rejects_a_nan_start_window(field):
    # A NaN start bound passed every window check, and the engine then scored
    # NaN where the scalar reference ignored the bound.
    tasks, workers, owners, categories = _mini_scenario()
    tasks[0] = replace(tasks[0], **{field: math.nan})
    assert [str(v) for v in validate_scenario(tasks, workers, owners, categories)] == [
        f"task 1: {field} must be below 2**53 minutes, got nan"
    ]


def test_validate_rejects_places_beyond_the_coordinate_limit():
    # Places about 1.3e154 km apart once got an infinite distance, which put
    # -inf and NaN score totals in the event log.
    tasks, workers, owners, categories = _mini_scenario()
    edge = replace(tasks[0], region=Point(MAX_COORDINATE_KM, -MAX_COORDINATE_KM))
    assert validate_scenario([edge], workers, owners, categories) == []
    tasks[0] = replace(tasks[0], region=Point(1e308, 1e308))
    far = Rect(MAX_COORDINATE_KM, 0.0, 3 * MAX_COORDINATE_KM, 0.0)
    pattern = WeeklySchedule((Segment(frozenset({0, 1}), 0, 60, far),), default=Point(0.0, 0.0))
    workers[0] = replace(workers[0], pattern=pattern)
    # The worker's far place fills two pieces of its week and is reported once.
    assert [str(v) for v in validate_scenario(tasks, workers, owners, categories)] == [
        "worker 1: place (2000000.0, 0.0) has a coordinate beyond 1e+06 km",
        "task 1: place (1e+308, 1e+308) has a coordinate beyond 1e+06 km",
    ]


def test_validate_reports_a_place_that_is_not_a_region():
    tasks, workers, owners, categories = _mini_scenario()
    workers[0] = replace(workers[0], pattern=WeeklySchedule((), default=["home"]))
    tasks[0] = replace(tasks[0], region="shop")
    assert [str(v) for v in validate_scenario(tasks, workers, owners, categories)] == [
        "worker 1: place is not a region: ['home']",
        "task 1: place is not a region: 'shop'",
    ]
