"""Scalar score formulas: frozen expected values and range/monotonicity laws."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdsim
from crowdsim.assign import ScoreEngine
from crowdsim.model import Point, Task, TaskCategory, TaskOwner, TrustCounters, Worker
from crowdsim.schedule import Segment, WeeklySchedule
from crowdsim.scoring import (
    MIN_FLOOR_KMH,
    ScoreBreakdown,
    TaskExpiredError,
    VelocityProfile,
    reward_score,
    task_priority_score,
    time_score,
    total_score,
    trustworthy_score,
)

VEL = VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0)


def make_task(**kw) -> Task:
    base = dict(
        id=1,
        owner_id=1,
        category_id=1,
        description="t",
        region=Point(0.0, 0.0),
        duration=20.0,
        expiration=120.0,
        pto_reward=10.0,
        entered_priority=1.0,
        submit_time=0.0,
    )
    base.update(kw)
    return Task(**base)


def make_worker(x=5.0, y=0.0, status=1.0, demand=4.0, trust=None) -> Worker:
    return Worker(
        id=1,
        pattern=WeeklySchedule((), default=Point(x, y)),
        status=WeeklySchedule((), default=status) if isinstance(status, float) else status,
        reward_demand={1: demand},
        trust={1: trust} if trust else {},
    )


OWNER = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=1.0)
CAT = TaskCategory(1, "c", 1.0, 5.0)


def engine_ttc(task: Task, worker: Worker) -> float:
    """Travel plus work minutes for ``worker`` dispatched at time 0, as the engine computes them."""
    return float(ScoreEngine([worker], [CAT], [OWNER], VEL).score_at(task, 0.0).ttc[0])


# -- time ---------------------------------------------------------------------


def test_time_to_complete_travel_plus_duration():
    # 5 km at 30 km/h is 10 minutes of travel.
    task = make_task()
    assert engine_ttc(task, make_worker()) == 30.0


def test_time_score_half_when_ttc_is_half_window():
    assert time_score(make_task(), ttc=60.0, t=0.0) == 0.5


def test_time_score_frozen_value_with_travel():
    # ttc = 10 min travel + 20 min work = 30; window 120 -> (120-30)/120.
    assert total_score(make_task(), make_worker(), OWNER, CAT, 0.0, VEL).time_score == 0.75


def test_time_score_negative_when_cannot_finish():
    assert time_score(make_task(), ttc=150.0, t=0.0) < 0.0
    assert time_score(make_task(), ttc=121.0, t=0.0) < 0.0


def test_time_score_at_most_one():
    assert time_score(make_task(), ttc=0.0, t=0.0) == 1.0
    assert time_score(make_task(), ttc=0.0, t=100.0) == 1.0


def test_time_score_raises_after_expiration():
    with pytest.raises(TaskExpiredError):
        time_score(make_task(), ttc=10.0, t=120.0)


def test_velocity_floor_applies():
    slow = VelocityProfile(schedule=WeeklySchedule((), default=0.0), floor_kmh=5.0)
    assert slow.speed_at(0.0) == 5.0
    assert VEL.speed_at(0.0) == 30.0


# -- reward ---------------------------------------------------------------------


def test_reward_score_frozen_value():
    assert reward_score(make_task(), make_worker(demand=4.0), CAT) == 0.6


def test_reward_score_zero_when_demand_not_met():
    assert reward_score(make_task(), make_worker(demand=10.0), CAT) == 0.0
    assert reward_score(make_task(), make_worker(demand=15.0), CAT) == 0.0


def test_reward_score_missing_demand_falls_back_to_category():
    worker = make_worker()
    worker.reward_demand.clear()
    # category cat_reward 5 stands in: (10-5)/10
    assert reward_score(make_task(), worker, CAT) == 0.5


# -- trust ----------------------------------------------------------------------


def test_trustworthy_frozen_value():
    counters = TrustCounters(assigned=5, accepted=4, completed=3)
    # (1*(4/5) + 2*(3/4)) / 3
    assert trustworthy_score(counters) == pytest.approx(0.7666666666666666, abs=1e-9)


def test_trustworthy_never_assigned_uses_initial():
    counters = TrustCounters(initial_score=0.42)
    assert trustworthy_score(counters) == pytest.approx(0.42, abs=1e-12)


def test_trustworthy_assigned_but_never_accepted():
    counters = TrustCounters(assigned=3, accepted=0, completed=0, initial_score=0.6)
    # acceptance ratio 0/3, completion ratio substituted by the initial score
    expected = (1.0 * 0.0 + 2.0 * 0.6) / 3.0
    assert trustworthy_score(counters) == pytest.approx(expected, abs=1e-12)


# -- priority ---------------------------------------------------------------------


def test_task_priority_frozen_value():
    owner = TaskOwner(1, pto_priority=0.8, max_reward_raise=0.0, raise_increment=1.0)
    cat = TaskCategory(1, "c", 0.9, 8.0)
    task = make_task(pto_reward=12.0, entered_priority=0.5)
    assert task_priority_score(task, owner, cat) == pytest.approx(0.54, abs=1e-12)


def test_task_priority_clamped_to_unit_interval():
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=0.0, raise_increment=1.0)
    cat = TaskCategory(1, "c", 1.0, 1.0)
    assert task_priority_score(make_task(pto_reward=50.0), owner, cat) == 1.0


# -- total ------------------------------------------------------------------------


def _half_status() -> WeeklySchedule:
    # 1.0 for the first 60 of a 120-minute window, i.e. availability 0.5.
    return WeeklySchedule((Segment(frozenset({0}), 0, 60, 1.0),), default=0.0)


def test_total_score_frozen_product():
    # ts=0.5 (duration 60, no travel), avail=0.5, reward=0.6, trust=0.8^1.
    task = make_task(duration=60.0)
    worker = make_worker(x=0.0, status=_half_status(), trust=TrustCounters(initial_score=0.8))
    b = total_score(task, worker, OWNER, CAT, 0.0, VEL)
    assert b.time_score == 0.5
    assert b.availability == 0.5
    assert b.reward == 0.6
    assert b.trust_weighted == 0.8
    assert b.total == pytest.approx(0.12, abs=1e-12)
    assert b.time_feasible


def test_total_score_priority_exponent():
    # pto_priority 0.5 squares the trust factor: 0.8^2.
    task = make_task(duration=60.0)
    worker = make_worker(x=0.0, status=_half_status(), trust=TrustCounters(initial_score=0.8))
    owner = TaskOwner(1, pto_priority=0.5, max_reward_raise=0.0, raise_increment=1.0)
    b = total_score(task, worker, owner, CAT, 0.0, VEL)
    assert b.trust_weighted == pytest.approx(0.6400000000000001, abs=0.0)
    assert b.total == pytest.approx(0.09600000000000002, abs=1e-15)


def test_total_score_exponent_base_floor():
    # Tiny priorities clamp at 0.05 instead of exploding the exponent.
    worker = make_worker(x=0.0, trust=TrustCounters(initial_score=0.9))
    owner = TaskOwner(1, pto_priority=0.001, max_reward_raise=0.0, raise_increment=1.0)
    b = total_score(make_task(), worker, owner, CAT, 0.0, VEL)
    assert b.trust_weighted == pytest.approx(0.9 ** (1.0 / 0.05), rel=1e-12)


def test_total_score_start_window_shifts_and_blocks():
    task = make_task(start_earliest=50.0, start_latest=60.0)
    worker = make_worker(x=0.0)
    b = total_score(task, worker, OWNER, CAT, 0.0, VEL)
    # Work cannot start before 50, so ttc = 50 + 20.
    assert b.time_score == time_score(task, 70.0, 0.0)
    late = total_score(task, worker, OWNER, CAT, 61.0, VEL)
    assert late.time_score == -1.0
    assert not late.time_feasible


def test_total_score_negative_factors_allowed_but_flagged():
    # Too far to finish: time score negative, total not positive.
    task = make_task(duration=115.0)
    b = total_score(task, make_worker(x=5.0), OWNER, CAT, 0.0, VEL)
    assert b.time_score < 0.0
    assert not b.time_feasible
    assert b.total <= 0.0


# -- property suites ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(
    st.floats(1.0, 400.0),
    st.floats(0.0, 0.999),
    st.floats(0.0, 200.0),
)
def test_time_score_bounded_and_monotone(window, frac, ttc):
    t = 0.0
    task = make_task(expiration=window)
    ts = time_score(task, ttc, t)
    assert ts <= 1.0
    # Larger ttc never helps.
    assert time_score(task, ttc + 1.0, t) <= ts
    # Positive exactly when the work fits strictly inside the window.
    assert (ts > 0) == (ttc < window)


@settings(max_examples=400, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.0, 150.0))
def test_reward_score_in_unit_range(reward, demand):
    task = make_task(pto_reward=reward)
    r = reward_score(task, make_worker(demand=demand), CAT)
    assert 0.0 <= r <= 1.0
    if demand >= reward:
        assert r == 0.0


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
    st.floats(0.0, 1.0),
)
def test_trustworthy_in_unit_range(assigned, accepted, completed, initial):
    accepted = min(accepted, assigned)
    completed = min(completed, accepted)
    counters = TrustCounters(assigned=assigned, accepted=accepted, completed=completed, initial_score=initial)
    v = trustworthy_score(counters)
    assert 0.0 <= v <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.1, 20.0),
    st.floats(0.1, 20.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
)
def test_total_zero_when_any_gate_fails(x, reward, status_level, pto_priority, entered):
    task = make_task(pto_reward=reward, entered_priority=entered)
    owner = TaskOwner(1, pto_priority=pto_priority, max_reward_raise=0.0, raise_increment=1.0)
    worker = make_worker(x=x, status=status_level, demand=reward + 1.0)
    b = total_score(task, worker, owner, CAT, 0.0, VEL)
    assert b.reward == 0.0
    assert b.total == 0.0 or b.total == -0.0


def test_breakdown_is_frozen():
    b = ScoreBreakdown(0.5, 0.5, 0.5, 0.5, 0.0625, True, 10.0, 1.0)
    with pytest.raises(AttributeError):
        b.total = 1.0


def test_total_score_rejects_expired_dispatch():
    with pytest.raises(TaskExpiredError):
        total_score(make_task(), make_worker(), OWNER, CAT, 120.0, VEL)


@pytest.mark.parametrize("t", [-math.inf, math.nan, math.inf])
def test_total_score_rejects_non_finite_dispatch(t):
    with pytest.raises(ValueError, match=f"task 1: dispatch time must be finite, got {t}"):
        total_score(make_task(), make_worker(), OWNER, CAT, t, VEL)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 119.0))
def test_time_score_decreases_as_dispatch_slips(t):
    # Fixed ttc: waiting can only shrink the score.
    task = make_task()
    early = time_score(task, 30.0, t)
    later = time_score(task, 30.0, min(t + 0.5, 119.5))
    assert later <= early + 1e-12


def test_distance_affects_ttc_monotonically():
    task = make_task()
    near = engine_ttc(task, make_worker(x=1.0))
    far = engine_ttc(task, make_worker(x=9.0))
    assert near < far
    assert math.isclose(far - near, (8.0 / 30.0) * 60.0)


def test_velocity_floor_has_a_minimum():
    # A floor of 1e-310 km/h once made travel times overflow to infinity.
    slowest = VelocityProfile(schedule=WeeklySchedule((), default=0.0), floor_kmh=MIN_FLOOR_KMH)
    assert slowest.speed_at(0.0) == 0.1
    for bad in (0.09, 1e-310, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"floor_kmh must be >= 0\.1, got"):
            VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=bad)


def test_scalar_reference_returns_python_floats():
    status = WeeklySchedule((Segment(frozenset({0}), 0, 60, 1.0),), default=0.25)
    b = total_score(make_task(), make_worker(status=status), OWNER, CAT, 30.0, VEL)
    for name in ("time_score", "availability", "reward", "trust_weighted", "total"):
        assert type(getattr(b, name)) is float, name
    assert type(status.cumulative(90.0)) is float


def test_scalar_reference_imports_no_numpy():
    # The scalar formulas stay plain Python; numpy belongs to the engine.
    package = Path(crowdsim.__file__).parent
    for name in ("model", "schedule", "scoring"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "numpy", f"{name}.py line {node.lineno} imports {module}"
