"""Discrete-event simulator: frozen traces, invariants, and trust bookkeeping."""

import copy
import math
import random
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import bookings_of, live_worker

from crowdsim import assign, simulate
from crowdsim.assign import Assignment, OutcomeKind, ScoreEngine
from crowdsim.model import Point, Rect, Task, TaskCategory, TaskOwner, TrustCounters, Worker
from crowdsim.schedule import WeeklySchedule
from crowdsim.scoring import ScoreBreakdown, VelocityProfile, total_score
from crowdsim.simulate import SimConfig, TaskState, _Sim, accept_decision, performance_metrics, run
from crowdsim.workload import GenParams, Scenario, builtin_scenarios, generate, load, save


def _trace(report, kinds=("dispatch", "accepted", "rejected", "completed", "expired", "unassignable")):
    return [(r.time_min, r.event_kind, r.task_id, r.worker_id) for r in report.log if r.event_kind in kinds]


# -- frozen traces for the hand-built scenarios ------------------------------------


def test_flower_delivery_score_policy_trace():
    sc = builtin_scenarios()["example1-flower-delivery"]
    cfg = SimConfig(duration_min=660.0, offline_batch_times=(180.0,), seed=0, policy="psc")
    rep = run(sc, cfg)
    # The scorer skips the idle nearby worker and goes straight to the far
    # free one: one dispatch, no rejections.
    assert _trace(rep) == [
        (540.0, "dispatch", 1, 1),
        (545.0, "accepted", 1, 1),
        (pytest.approx(579.654), "completed", 1, 1),
    ]
    dispatch = next(r for r in rep.log if r.event_kind == "dispatch")
    assert dispatch.score_total == pytest.approx(0.334775, abs=1e-9)
    assert rep.counts == {
        "submitted": 1,
        "assigned": 1,
        "accepted": 1,
        "completed": 1,
        "expired": 0,
        "unassignable": 0,
    }
    assert rep.task_state[1] is TaskState.COMPLETED


def test_flower_delivery_nearest_policy_trace():
    sc = builtin_scenarios()["example1-flower-delivery"]
    cfg = SimConfig(duration_min=660.0, seed=0, policy="sc-nearest")
    rep = run(sc, cfg)
    # Distance-first wastes its opening offer on the never-free worker and
    # finishes a full response-delay later than the score policy.
    assert _trace(rep) == [
        (540.0, "dispatch", 1, 2),
        (545.0, "rejected", 1, 2),
        (545.0, "dispatch", 1, 1),
        (550.0, "accepted", 1, 1),
        (pytest.approx(584.654), "completed", 1, 1),
    ]
    assert rep.counts["completed"] == 1


def test_flower_delivery_trust_counters_after_run():
    sc = builtin_scenarios()["example1-flower-delivery"]
    rep = run(sc, SimConfig(duration_min=660.0, seed=0, policy="sc-nearest"))
    by_id = {w.id: w for w in rep.final_workers}
    assert by_id[2].trust[1] == TrustCounters(assigned=1, accepted=0, completed=0, initial_score=1.0)
    assert by_id[1].trust[1] == TrustCounters(assigned=1, accepted=1, completed=1, initial_score=1.0)


def test_flower_delivery_bookings_after_run():
    sc = builtin_scenarios()["example1-flower-delivery"]
    rep = run(sc, SimConfig(duration_min=660.0, offline_batch_times=(180.0,), seed=0, policy="psc"))
    by_id = {w.id: w for w in rep.final_workers}
    assert by_id[1].bookings == [(540.0, pytest.approx(579.654))]
    # The rejected-on-another-policy worker stays clean here; more to the
    # point, a rejection must release the hold (checked on the other policy).
    rep2 = run(sc, SimConfig(duration_min=660.0, seed=0, policy="sc-nearest"))
    by_id2 = {w.id: w for w in rep2.final_workers}
    assert by_id2[2].bookings == []
    assert by_id2[1].bookings == [(545.0, pytest.approx(584.654))]


def test_high_entropy_score_policy_picks_the_outlier():
    sc = builtin_scenarios()["example2-high-entropy"]
    cfg = SimConfig(duration_min=780.0, offline_batch_times=(180.0,), seed=0, policy="psc")
    rep = run(sc, cfg)
    assert _trace(rep) == [
        (600.0, "dispatch", 1, 21),
        (605.0, "accepted", 1, 21),
        (627.0, "completed", 1, 21),
    ]
    dispatch = next(r for r in rep.log if r.event_kind == "dispatch")
    assert dispatch.score_total == pytest.approx(0.425, abs=1e-9)


def test_high_entropy_nearest_policy_churns_the_cluster():
    sc = builtin_scenarios()["example2-high-entropy"]
    rep = run(sc, SimConfig(duration_min=780.0, seed=0, policy="sc-nearest"))
    rows = _trace(rep)
    # First offer goes to the nearest (busy) clustered worker and is turned
    # down; the cluster is then worked through nearest-first before the far
    # worker finally accepts.
    assert rows[0] == (600.0, "dispatch", 1, 20)
    assert rows[1] == (605.0, "rejected", 1, 20)
    dispatched = [wid for _, kind, _, wid in rows if kind == "dispatch"]
    assert dispatched == list(range(20, 0, -1)) + [21]
    assert rows[-2:] == [(705.0, "accepted", 1, 21), (727.0, "completed", 1, 21)]
    assert rep.counts["completed"] == 1


def test_policies_diverge_only_after_the_first_decision():
    # Same seed: identical submit handling, different dispatch choices.
    sc = builtin_scenarios()["example1-flower-delivery"]
    a = run(sc, SimConfig(duration_min=660.0, seed=0, policy="psc"))
    b = run(sc, SimConfig(duration_min=660.0, seed=0, policy="sc-nearest"))
    assert a.log[0].event_kind == b.log[0].event_kind == "submitted"
    assert a.log[1].worker_id != b.log[1].worker_id


# -- acceptance sampling -------------------------------------------------------------


def _assignment(avail: float, reward: float = 0.5, ts: float = 0.5) -> Assignment:
    b = ScoreBreakdown(
        time_score=ts,
        availability=avail,
        reward=reward,
        trust_weighted=1.0,
        total=max(ts, 0.0) * avail * reward,
        time_feasible=ts > 0,
    )
    return Assignment(1, 1, 0.0, b, ttc_min=10.0, travel_km=1.0)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_accept_rate_tracks_availability(p):
    rng = random.Random(1234)
    n = 10_000
    hits = sum(accept_decision(_assignment(p), rng) for _ in range(n))
    assert hits / n == pytest.approx(p, abs=0.02)


def test_accept_is_gated_on_reward_and_time():
    rng = random.Random(0)
    assert not any(accept_decision(_assignment(1.0, reward=0.0), rng) for _ in range(200))
    assert not any(accept_decision(_assignment(1.0, ts=0.0), rng) for _ in range(200))
    assert not any(accept_decision(_assignment(1.0, ts=-0.5), rng) for _ in range(200))


def test_accept_consumes_one_draw_either_way():
    # Stream position must not depend on the outcome.
    r1, r2 = random.Random(42), random.Random(42)
    accept_decision(_assignment(0.0), r1)
    accept_decision(_assignment(1.0), r2)
    assert r1.random() == r2.random()


def test_accept_probability_clamped():
    rng = random.Random(5)
    assert all(accept_decision(_assignment(1.5), rng) for _ in range(100))


# -- trust bookkeeping ----------------------------------------------------------------


def _trust_engine(trust=None) -> ScoreEngine:
    w = Worker(1, WeeklySchedule((), default=Point(0, 0)), WeeklySchedule((), default=1.0), trust=trust or {})
    categories = [TaskCategory(1, "a", 1.0, 5.0), TaskCategory(3, "c", 1.0, 5.0)]
    return ScoreEngine([w], categories, [], VelocityProfile(WeeklySchedule((), default=30.0), 5.0))


def test_trust_update_sequence():
    engine = _trust_engine()
    engine.refresh_trust(1, 3, "assigned")
    assert live_worker(engine, 1).trust == {3: TrustCounters(1, 0, 0)}
    engine.refresh_trust(1, 3, "accepted")
    engine.refresh_trust(1, 3, "completed")
    assert live_worker(engine, 1).trust == {3: TrustCounters(1, 1, 1)}
    # Initial score survives the counter updates.
    engine = _trust_engine({3: TrustCounters(1, 1, 1, initial_score=0.9)})
    engine.refresh_trust(1, 3, "assigned")
    assert live_worker(engine, 1).trust[3] == TrustCounters(2, 1, 1, initial_score=0.9)


def test_trust_update_rejects_impossible_orderings():
    engine = _trust_engine()
    with pytest.raises(RuntimeError):
        engine.refresh_trust(1, 1, "accepted")
    engine.refresh_trust(1, 1, "assigned")
    engine.refresh_trust(1, 1, "accepted")
    with pytest.raises(RuntimeError):
        engine.refresh_trust(1, 1, "accepted")
    engine.refresh_trust(1, 1, "completed")
    with pytest.raises(RuntimeError):
        engine.refresh_trust(1, 1, "completed")
    with pytest.raises(ValueError):
        engine.refresh_trust(1, 1, "rejected")
    # A refused event leaves the counter as it was.
    assert live_worker(engine, 1).trust == {1: TrustCounters(1, 1, 1)}


def test_trust_update_counts_only_the_three_events():
    engine = _trust_engine({1: TrustCounters(1, 1, 0, initial_score=0.5)})
    with pytest.raises(ValueError, match="unknown trust event 'initial_score'"):
        engine.refresh_trust(1, 1, "initial_score")
    assert live_worker(engine, 1).trust == {1: TrustCounters(1, 1, 0, initial_score=0.5)}


def _partly_trusted_scenario() -> Scenario:
    sc = generate(GenParams(n_workers=20, n_tasks=60, horizon_min=2880.0), seed=4)
    # Even-numbered workers register no trust entry for category 1.
    workers = [replace(w, trust={c: t for c, t in w.trust.items() if c != 1 or w.id % 2}) for w in sc.workers]
    return replace(sc, workers=workers)


def _run_partly_trusted(sc: Scenario, policy: str):
    return run(sc, SimConfig(duration_min=2880.0, offline_batch_times=(180.0, 1620.0), seed=2, policy=policy))


@pytest.mark.parametrize("policy", ["psc", "sc-nearest"])
def test_run_leaves_workers_alone_and_reports_live_counters(policy):
    sc = _partly_trusted_scenario()
    before = copy.deepcopy(sc.workers)
    rep = _run_partly_trusted(sc, policy)
    assert sc.workers == before

    category_of = {t.id: t.category_id for t in sc.tasks}
    events = Counter(
        (r.worker_id, category_of[r.task_id], r.event_kind)
        for r in rep.log
        if r.event_kind in ("dispatch", "accepted", "completed")
    )
    assert [w.id for w in rep.final_workers] == [w.id for w in sc.workers]
    touched_new = 0
    for w, final in zip(sc.workers, rep.final_workers):
        touched = set()
        for cat in sc.categories:
            got, given = final.trust_for(cat.id), w.trust_for(cat.id)
            n = [events[(w.id, cat.id, kind)] for kind in ("dispatch", "accepted", "completed")]
            assert got == replace(
                given, assigned=given.assigned + n[0], accepted=given.accepted + n[1], completed=given.completed + n[2]
            )
            if any(n):
                touched.add(cat.id)
                touched_new += cat.id not in w.trust
        assert set(final.trust) == set(w.trust) | touched
    assert touched_new > 0  # the run advanced counters the input did not have


def test_nearest_scores_its_winner_on_live_counters():
    sc = _partly_trusted_scenario()
    rep = _run_partly_trusted(sc, "sc-nearest")
    tasks = {t.id: t for t in sc.tasks}
    owners = {o.id: o for o in sc.owners}
    categories = {c.id: c for c in sc.categories}
    given = {w.id: w for w in sc.workers}
    live = dict(given)
    field = {"dispatch": "assigned", "accepted": "accepted", "completed": "completed"}
    advanced = 0
    for r in rep.log:
        if r.event_kind not in field:
            continue
        task, w = tasks[r.task_id], live[r.worker_id]
        c = w.trust_for(task.category_id)
        if r.event_kind == "dispatch":
            # The baseline picks and scores its winner at the dispatch time,
            # before the dispatch advances the counters.
            want = total_score(task, w, owners[task.owner_id], categories[task.category_id], r.time_min, sc.velocity)
            assert r.score_total == want.total
            advanced += c != given[w.id].trust_for(task.category_id)
        c = replace(c, **{field[r.event_kind]: getattr(c, field[r.event_kind]) + 1})
        live[w.id] = replace(w, trust={**w.trust, task.category_id: c})
    assert advanced > 0  # some winners were scored on counters the run had advanced


# -- config validation ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sim_config_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        SimConfig(duration_min=bad)
    with pytest.raises(ValueError):
        SimConfig(duration_min=100.0, response_delay_min=bad)
    with pytest.raises(ValueError, match="grid step must be finite"):
        SimConfig(duration_min=100.0, grid_step_min=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
def test_sim_config_rejects_bad_batch_times(bad):
    # Such times used to be dropped in silence, so the run had no batch.
    with pytest.raises(ValueError, match=f"batch times must be finite and >= 0, got {bad}"):
        SimConfig(duration_min=100.0, offline_batch_times=(50.0, bad))


def test_batch_times_past_the_horizon_are_ignored():
    sc = builtin_scenarios()["example1-flower-delivery"]
    cfg = SimConfig(duration_min=660.0, offline_batch_times=(180.0, 1e9), seed=0, policy="psc")
    rep = run(sc, cfg)
    assert [r.time_min for r in rep.log if r.event_kind == "offline_batch"] == [180.0]


def test_int_and_float_minutes_give_one_log_text():
    # SimConfig stores its minutes as floats after its checks, so int batch
    # times print as float ones do; a string still fails the checks.
    sc = builtin_scenarios()["example1-flower-delivery"]
    logs = {
        repr(run(sc, SimConfig(duration_min=d, offline_batch_times=bt, seed=0, policy="psc")).log)
        for d, bt in ((660, (180, 360)), (660.0, (180.0, 360.0)))
    }
    assert len(logs) == 1
    assert SimConfig(duration_min=660, offline_batch_times=[180]).offline_batch_times == (180.0,)
    with pytest.raises(TypeError):
        SimConfig(duration_min=100.0, offline_batch_times=("50",))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(duration_min=100.0, policy="round-robin")
    with pytest.raises(ValueError):
        SimConfig(duration_min=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration_min=100.0, response_delay_min=-1.0)


def test_performance_metrics_definitions():
    per_hour, fraction, travel = performance_metrics(30, 60, 600.0, [1.0, 3.0])
    assert per_hour == 3.0
    assert fraction == 0.5
    assert travel == 2.0
    assert performance_metrics(0, 0, 60.0, [])[1:] == (0.0, 0.0)


# -- expiry and retry paths ---------------------------------------------------------------


def _one_worker_scenario(status: float, *, demand: float = 0.0, far: bool = False) -> Scenario:
    return Scenario(
        extent=Rect(0.0, 0.0, 10.0, 10.0),
        velocity=VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0),
        categories=[TaskCategory(1, "c", 1.0, 5.0)],
        owners=[TaskOwner(1, pto_priority=1.0, max_reward_raise=0.0, raise_increment=1.0)],
        workers=[
            Worker(
                id=1,
                pattern=WeeklySchedule((), default=Point(9.0 if far else 1.0, 1.0)),
                status=WeeklySchedule((), default=status),
                reward_demand={1: demand},
            )
        ],
        tasks=[
            Task(
                id=1,
                owner_id=1,
                category_id=1,
                description="t",
                region=Point(1.0, 1.0),
                duration=30.0,
                expiration=240.0,
                pto_reward=10.0,
                entered_priority=1.0,
                submit_time=60.0,
            )
        ],
    )


def test_refused_offer_releases_hold_and_excludes_worker():
    # Availability 0.01: the offer is made, the seeded draw refuses it, the
    # worker is excluded, and the retry loop runs out of options.
    assert random.Random(0).random() > 0.01  # the draw the simulator will make
    sc = _one_worker_scenario(status=0.01)
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy="psc"))
    kinds = [r.event_kind for r in rep.log]
    assert kinds.count("dispatch") == 1
    assert kinds.count("rejected") == 1
    assert rep.task_state[1] in (TaskState.UNASSIGNABLE, TaskState.EXPIRED)
    assert rep.counts["completed"] == 0
    by_id = {w.id: w for w in rep.final_workers}
    assert by_id[1].bookings == []  # the hold was released on rejection


def test_rejection_decided_after_the_booking_ended_releases_it(monkeypatch):
    # Task 1 books the worker for [60, 90), and its decision comes at 160.
    # Task 2 books the same worker at 100. The rejection at 160 must still
    # release the booking that ended at 90, and the report holds neither.
    assert [random.Random(0).random() > 0.01 for _ in range(2)] == [True, True]
    sc = _one_worker_scenario(status=0.01)
    sc.tasks.append(replace(sc.tasks[0], id=2, submit_time=100.0))
    released = []
    release = ScoreEngine.release

    def spy(self, worker_id, start, end):
        released.append((start, end))
        release(self, worker_id, start, end)

    monkeypatch.setattr(ScoreEngine, "release", spy)
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy="psc", response_delay_min=100.0))
    assert _trace(rep, ("dispatch", "rejected")) == [
        (60.0, "dispatch", 1, 1),
        (100.0, "dispatch", 2, 1),
        (160.0, "rejected", 1, 1),
        (200.0, "rejected", 2, 1),
    ]
    assert released == [(60.0, 90.0), (100.0, 130.0)]
    assert rep.final_workers[0].bookings == []


@pytest.mark.parametrize("policy", ["psc", "sc-nearest"])
def test_scenario_bookings_hold_for_the_run_and_end_in_the_report(policy):
    # The worker is booked by the scenario until 100, so task 1 waits for
    # it; task 2 then waits for task 1's work to end. Completed work leaves
    # the engine's table, and the report lists the scenario's booking plus
    # those of both accepted tasks.
    sc = _one_worker_scenario(status=1.0)
    sc.workers[0] = replace(sc.workers[0], bookings=[(0.0, 100.0)])
    sc.tasks.append(replace(sc.tasks[0], id=2, submit_time=120.0))
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy=policy))
    assert _trace(rep) == [
        (105.0, "dispatch", 1, 1),
        (110.0, "accepted", 1, 1),
        (135.0, "dispatch", 2, 1),
        (135.0, "completed", 1, 1),
        (140.0, "accepted", 2, 1),
        (165.0, "completed", 2, 1),
    ]
    assert rep.final_workers[0].bookings == [(0.0, 100.0), (105.0, 135.0), (135.0, 165.0)]


def test_zero_availability_worker_is_never_even_offered():
    # The score policy prices in availability up front: a worker whose
    # status is flat zero scores zero and is skipped, not dispatched.
    sc = _one_worker_scenario(status=0.0)
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy="psc"))
    assert all(r.event_kind != "dispatch" for r in rep.log)
    assert rep.task_state[1] is TaskState.UNASSIGNABLE


def test_unmet_demand_without_raise_budget_is_unassignable():
    sc = _one_worker_scenario(status=1.0, demand=99.0)
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy="psc"))
    assert rep.task_state[1] is TaskState.UNASSIGNABLE
    assert rep.unassigned_reason[1] is OutcomeKind.REWARD_INSUFFICIENT
    assert rep.counts["unassignable"] == 1


def test_deadline_infeasible_reported():
    sc = _one_worker_scenario(status=1.0, far=True)
    # 16 km round at 30 km/h is ~32 min travel; duration 30 still fits in a
    # 180-minute window, so shrink the window instead.
    sc.tasks[0] = Task(
        id=1,
        owner_id=1,
        category_id=1,
        description="t",
        region=Point(1.0, 1.0),
        duration=200.0,
        expiration=120.0,
        pto_reward=10.0,
        entered_priority=1.0,
        submit_time=60.0,
    )
    rep = run(sc, SimConfig(duration_min=300.0, seed=0, policy="psc"))
    assert rep.task_state[1] is TaskState.UNASSIGNABLE
    assert rep.unassigned_reason[1] is OutcomeKind.DEADLINE_INFEASIBLE


def test_task_still_running_at_horizon_expires():
    sc = _one_worker_scenario(status=1.0)
    rep = run(sc, SimConfig(duration_min=80.0, seed=0, policy="psc"))
    # Dispatch at 60, decision at 65, completion would land past 80.
    assert rep.counts["accepted"] == 1
    assert rep.counts["completed"] == 0
    assert rep.task_state[1] is TaskState.EXPIRED
    assert rep.counts["expired"] == 1


def test_submit_after_duration_never_enters():
    sc = _one_worker_scenario(status=1.0)
    rep = run(sc, SimConfig(duration_min=30.0, seed=0, policy="psc"))
    assert rep.counts["submitted"] == 0
    assert rep.task_state == {}


# -- batch interplay --------------------------------------------------------------------


def test_submit_near_batch_waits_for_it():
    sc = _one_worker_scenario(status=1.0)
    # Batch at 90 is comfortably before expiration-minus-duration: wait.
    rep = run(sc, SimConfig(duration_min=300.0, offline_batch_times=(90.0,), seed=0, policy="psc"))
    dispatch = next(r for r in rep.log if r.event_kind == "dispatch")
    assert dispatch.time_min == 90.0
    assert rep.counts["completed"] == 1


def test_submit_with_useless_batch_goes_online():
    sc = _one_worker_scenario(status=1.0)
    # The only batch lands too close to the deadline to be worth waiting for.
    rep = run(sc, SimConfig(duration_min=300.0, offline_batch_times=(235.0,), seed=0, policy="psc"))
    dispatch = next(r for r in rep.log if r.event_kind == "dispatch")
    assert dispatch.time_min == 60.0


def test_nearest_policy_ignores_batches():
    sc = _one_worker_scenario(status=1.0)
    rep = run(sc, SimConfig(duration_min=300.0, offline_batch_times=(90.0,), seed=0, policy="sc-nearest"))
    assert all(r.event_kind != "offline_batch" for r in rep.log)
    dispatch = next(r for r in rep.log if r.event_kind == "dispatch")
    assert dispatch.time_min == 60.0


# -- whole-run invariants -----------------------------------------------------------------


@pytest.mark.parametrize("policy", ["psc", "sc-nearest"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_partition_and_order(policy, seed):
    params = GenParams(n_workers=25, n_tasks=60, horizon_min=4320.0)
    sc = generate(params, seed=seed)
    cfg = SimConfig(
        duration_min=4320.0,
        offline_batch_times=tuple(180.0 + 720.0 * k for k in range(6)),
        seed=seed,
        policy=policy,
    )
    rep = run(sc, cfg)
    c = rep.counts
    assert c["submitted"] == len(sc.tasks)
    assert c["completed"] + c["expired"] + c["unassignable"] == c["submitted"]
    assert c["completed"] <= c["accepted"] <= c["assigned"] <= c["submitted"]
    # Terminal states agree with the counters.
    states = list(rep.task_state.values())
    assert states.count(TaskState.COMPLETED) == c["completed"]
    assert states.count(TaskState.EXPIRED) == c["expired"]
    assert states.count(TaskState.UNASSIGNABLE) == c["unassignable"]
    # Every lingering booking is a sorted, disjoint set of intervals.
    for w in rep.final_workers:
        spans = sorted(w.bookings)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


@pytest.mark.parametrize("policy", ["psc", "sc-nearest"])
def test_same_seed_same_run(policy):
    sc = generate(GenParams(n_workers=15, n_tasks=40, horizon_min=2880.0), seed=3)
    cfg = SimConfig(duration_min=2880.0, offline_batch_times=(180.0, 1620.0), seed=9, policy=policy)
    a, b = run(sc, cfg), run(sc, cfg)
    assert a.log == b.log
    assert a.counts == b.counts
    assert a.performance_def1 == b.performance_def1


def _outputs(report) -> str:
    """The text of a run's log, counts, task states and final workers by id.

    The report lists final workers in the scenario's order.
    """
    final = sorted(report.final_workers, key=lambda w: w.id)
    return repr((report.log, report.counts, list(report.task_state.items()), final))


@settings(max_examples=40, deadline=None)
@given(
    n_workers=st.integers(1, 8),
    n_tasks=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(["psc", "sc-nearest"]),
    data=st.data(),
)
def test_run_is_a_function_of_the_scenario_content(n_workers, n_tasks, seed, policy, data):
    # Listing the tasks or the workers in another order, adding a task that
    # is submitted after the horizon, and a save/load round trip each leave
    # the run's log, counts, task states and final workers byte for byte as
    # they were.
    sc = generate(GenParams(n_workers=n_workers, n_tasks=n_tasks, horizon_min=1440.0, urgent_fraction=0.5), seed=seed)
    cfg = SimConfig(duration_min=1440.0, offline_batch_times=(180.0, 540.0, 900.0), seed=seed, policy=policy)
    want = _outputs(run(sc, cfg))
    late = replace(
        sc.tasks[0], id=max(t.id for t in sc.tasks) + 1, submit_time=1441.0, expiration=1600.0,
        start_earliest=None, start_latest=None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        save(sc, path)
        loaded = load(path)
    for other in (
        replace(sc, tasks=data.draw(st.permutations(sc.tasks))),
        replace(sc, workers=data.draw(st.permutations(sc.workers))),
        replace(sc, tasks=[*sc.tasks, late]),
        loaded,
    ):
        assert _outputs(run(other, cfg)) == want


def test_different_acceptance_seed_changes_outcomes():
    sc = generate(GenParams(n_workers=15, n_tasks=40, horizon_min=2880.0), seed=3)
    base = dict(duration_min=2880.0, offline_batch_times=(180.0, 1620.0), policy="psc")
    a = run(sc, SimConfig(seed=0, **base))
    b = run(sc, SimConfig(seed=1, **base))
    assert a.log != b.log  # different accept/reject draws


def test_log_is_time_ordered():
    sc = generate(GenParams(n_workers=10, n_tasks=30, horizon_min=1440.0), seed=5)
    rep = run(sc, SimConfig(duration_min=1440.0, offline_batch_times=(180.0,), seed=0, policy="psc"))
    times = [r.time_min for r in rep.log]
    assert times == sorted(times)


def test_report_metrics_consistent_with_counts():
    sc = generate(GenParams(n_workers=20, n_tasks=50, horizon_min=2880.0), seed=7)
    rep = run(sc, SimConfig(duration_min=2880.0, offline_batch_times=(180.0,), seed=0, policy="psc"))
    assert rep.performance_def1 == pytest.approx(rep.counts["completed"] / (2880.0 / 60.0))
    assert rep.completion_fraction == pytest.approx(rep.counts["completed"] / rep.counts["submitted"])
    assert rep.sim_minutes == 2880.0


# -- work pinned over a whole run ---------------------------------------------------


def _psc_days() -> tuple[Scenario, SimConfig]:
    """Three days of 20 workers and 300 tasks, with batches every 6 hours."""
    sc = generate(GenParams(20, 300, urgent_fraction=0.5, horizon_min=4320.0), seed=4)
    return sc, SimConfig(duration_min=4320.0, offline_batch_times=tuple(range(180, 4320, 360)), seed=0)


def test_schedule_lookups_build_each_rank_column_at_most_once(monkeypatch):
    # A piece table searches its full key array only to build the column of
    # places or status fields for a rank it has not seen, so over a whole run
    # it does so at most once per rank, however many online decisions look
    # it up, under either policy.  The speed reads the scalar reference.
    tables = []
    init = assign._PieceTable.__init__

    def register(self, *args):
        init(self, *args)
        tables.append(self)

    key_searches = Counter()
    searchsorted = np.searchsorted

    def counted(a, *args, **kwargs):
        for k, table in enumerate(tables):
            key_searches[k] += a is table._keys
        return searchsorted(a, *args, **kwargs)

    monkeypatch.setattr(assign._PieceTable, "__init__", register)
    monkeypatch.setattr(np, "searchsorted", counted)
    sc, config = _psc_days()
    for policy, assigner in (("psc", "online_assign"), ("sc-nearest", "baseline_nearest")):
        tables.clear()
        key_searches.clear()
        decisions = []
        with monkeypatch.context() as m:
            decide = getattr(simulate, assigner)
            m.setattr(simulate, assigner, lambda *a, decide=decide, **kw: decisions.append(a[2]) or decide(*a, **kw))
            run(sc, replace(config, policy=policy))
        assert len(tables) == 2 and len(decisions) > 100, policy
        for k, table in enumerate(tables):
            assert key_searches[k] <= len(table._cuts) + 1, (policy, k, key_searches[k], len(table._cuts) + 1)


def test_nearest_decisions_copy_no_worker(monkeypatch):
    # The baseline scores each winner on the engine's live trust counters,
    # so a decision builds no worker record: no ``Worker.__init__`` call,
    # which ``dataclasses.replace`` also goes through, runs inside it.  The
    # engine build and the report do build records, which shows the hook sees them.
    sc, config = _psc_days()
    inside, built = [False], Counter()
    init, decide = Worker.__init__, simulate.baseline_nearest

    def counted(self, *args, **kwargs):
        built[inside[0]] += 1
        init(self, *args, **kwargs)

    def wrapped(*args, **kwargs):
        inside[0] = True
        try:
            return decide(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(Worker, "__init__", counted)
    monkeypatch.setattr(simulate, "baseline_nearest", wrapped)
    rep = run(sc, replace(config, policy="sc-nearest"))
    assert sum(r.event_kind == "dispatch" for r in rep.log) > 100
    assert built[True] == 0 and built[False] >= 2 * len(sc.workers), built


def test_nearest_builds_the_full_mask_only_when_the_nearest_is_taken(monkeypatch):
    # An sc-nearest decision checks only the nearest worker that is not
    # excluded against its own bookings; the full booking mask is built on
    # exactly the decisions where that worker is taken.  Which worker that
    # is, and whether it is taken, is read from the vectorised scores first.
    masks = []
    mask = assign._availability_mask
    monkeypatch.setattr(assign, "_availability_mask", lambda *a: masks.append(a) or mask(*a))
    built, taken = [], []
    decide = simulate.baseline_nearest

    def checked(task, engine, t, *, exclude_workers=()):
        s = engine.score_at(task, t)
        near = np.where([w.id in exclude_workers for w in engine.workers], np.inf, s.travel_km)
        i = int(np.argmin(near))
        taken.append(not near[i] < np.inf or not engine.is_free(i, t, t + s.ttc[i]))
        before = len(masks)
        out = decide(task, engine, t, exclude_workers=exclude_workers)
        built.append(len(masks) - before)
        return out

    monkeypatch.setattr(simulate, "baseline_nearest", checked)
    sc, config = _psc_days()
    run(sc, replace(config, policy="sc-nearest"))
    assert built == [int(x) for x in taken]
    assert 0 < sum(taken) < len(taken), (sum(taken), len(taken))


def test_engine_holds_entries_for_exactly_the_workers_with_live_bookings(monkeypatch):
    # Each task's booking is released when it is rejected, expires or
    # completes, so after every event the engine holds exactly the
    # scenario's bookings and those of the pending and in-progress tasks,
    # and an entry for exactly the workers that hold any of them.
    sc, config = _psc_days()
    given = {w.id: list(w.bookings) for w in sc.workers}
    most_held = events = 0

    def check(sim):
        nonlocal most_held, events
        want = {wid: list(b) for wid, b in given.items()}
        for r in sim.runs.values():
            if r.state in (TaskState.PENDING, TaskState.IN_PROGRESS):
                want[r.assignment.worker_id].append(r.assignment.booking)
        assert {wid: bookings_of(sim.engine, wid) for wid in want} == {wid: sorted(b) for wid, b in want.items()}
        assert set(sim.engine._bookings) == {sim.engine.index_of[wid] for wid, b in want.items() if b}
        most_held = max(most_held, *map(len, want.values()))
        events += 1

    for name in ("on_submit", "on_batch", "on_online", "on_dispatch", "on_decision", "on_complete", "on_expire"):

        def checked(self, t, tid, handler=getattr(_Sim, name)):
            handler(self, t, tid)
            check(self)

        monkeypatch.setattr(_Sim, name, checked)
    for policy in ("psc", "sc-nearest"):
        most_held = events = 0
        rep = run(sc, replace(config, policy=policy))
        assert events > 1000 and rep.counts["completed"] > 100 and most_held > 1, policy
