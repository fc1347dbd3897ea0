"""Assignment engines versus the plain-Python oracles, plus edge cases."""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import brute_force
from instances import Instance, random_instance

import crowdsim
from crowdsim import assign
from crowdsim.assign import (
    Assignment,
    AssignOutcome,
    OutcomeKind,
    ScoreEngine,
    TimeGrid,
    baseline_nearest,
    offline_assign,
    online_assign,
)
from crowdsim.model import Point, Task, TaskCategory, TaskOwner, TrustCounters, Worker, centroid
from crowdsim.schedule import WEEK_MINUTES, Segment, WeeklySchedule
from crowdsim.scoring import TaskExpiredError, VelocityProfile, total_score
from crowdsim.workload import GenParams, generate

VEL = VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0)


def _task(tid=1, **kw) -> Task:
    base = dict(
        id=tid,
        owner_id=1,
        category_id=1,
        description="t",
        region=Point(5.0, 5.0),
        duration=10.0,
        expiration=240.0,
        pto_reward=10.0,
        entered_priority=1.0,
        submit_time=0.0,
    )
    base.update(kw)
    return Task(**base)


def _worker(wid=1, x=5.0, y=5.0, demand=0.0, **kw) -> Worker:
    return Worker(
        id=wid,
        pattern=WeeklySchedule((), default=Point(x, y)),
        status=WeeklySchedule((), default=1.0),
        reward_demand={1: demand},
        **kw,
    )


OWNER = TaskOwner(1, pto_priority=1.0, max_reward_raise=0.0, raise_increment=1.0)
CAT = TaskCategory(1, "c", 1.0, 5.0)


def _engine(workers, categories=(CAT,), owners=(OWNER,), velocity=VEL) -> ScoreEngine:
    return ScoreEngine(workers, list(categories), list(owners), velocity)


# -- TimeGrid -------------------------------------------------------------------


def test_grid_times_basic():
    g = TimeGrid(step_min=15.0, horizon_min=10_000.0)
    assert g.times(0.0, before=60.0).tolist() == [0.0, 15.0, 30.0, 45.0]


def test_grid_times_excludes_boundary_and_caps_at_horizon():
    g = TimeGrid(step_min=15.0, horizon_min=30.0)
    assert g.times(0.0, before=1000.0).tolist() == [0.0, 15.0, 30.0]
    assert g.times(0.0, before=30.0).tolist() == [0.0, 15.0]


def test_grid_times_offset_origin_and_empty():
    g = TimeGrid(step_min=20.0, horizon_min=500.0)
    assert g.times(100.0, before=161.0).tolist() == [100.0, 120.0, 140.0, 160.0]
    assert g.times(600.0, before=700.0).tolist() == []
    assert g.times(100.0, before=100.0).tolist() == []


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(step_min=0.0)
    with pytest.raises(ValueError):
        TimeGrid(horizon_min=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_grid_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        TimeGrid(step_min=bad)
    with pytest.raises(ValueError):
        TimeGrid(horizon_min=bad)


def test_grid_times_match_oracle():
    for seed in range(50):
        rng = random.Random(seed)
        step = rng.choice([5.0, 15.0, 25.0])
        now = rng.choice([0.0, 10.0, 333.0])
        horizon = now + rng.uniform(0.0, 200.0)
        before = now + rng.uniform(0.0, 300.0)
        got = TimeGrid(step, horizon).times(now, before).tolist()
        want = brute_force.grid_times(now, step, horizon, before)
        assert got == pytest.approx(want), (seed, step, now, horizon, before)


# -- offline equivalence ----------------------------------------------------------


def _run_both(inst):
    grid = TimeGrid(step_min=inst.step, horizon_min=inst.horizon)
    assignments, unassigned = offline_assign(inst.tasks, inst.engine(), inst.now, grid, rng_seed=inst.seed)
    got_triples = {(a.task_id, a.worker_id, a.dispatch_time) for a in assignments}
    got_kinds = {tid: kind.value for tid, kind in unassigned}
    want_triples, want_kinds = brute_force.offline_oracle(
        inst.tasks,
        inst.workers,
        inst.owners,
        inst.categories,
        inst.now,
        inst.step,
        inst.horizon,
        inst.velocity,
        seed=inst.seed,
    )
    return got_triples, got_kinds, want_triples, want_kinds


def _oracle_cases():
    """Every seed at the default candidate block (id: the bare seed) and at
    blocks 1 and 2, which cap and rebuild every table; plain and with ties.
    Blocks 1 and 2 run again with one worker row per first search block, so
    the threshold search stops early on these few-worker instances."""
    for ties in (False, True):
        for block, rows in ((64, 16), (1, 16), (2, 16), (1, 1), (2, 1)):
            for seed in range(200):
                tags = [str(seed)] + ["ties"] * ties + ([f"block{block}"] if block != 64 else [])
                tags += [f"rows{rows}"] if rows != 16 else []
                yield pytest.param(seed, block, rows, ties, id="-".join(tags))


def _with_clones(inst):
    """Each task again under a fresh id, so a copy ties with its original on (priority, total)."""
    offset = max(t.id for t in inst.tasks)
    return replace(inst, tasks=inst.tasks + [replace(t, id=t.id + offset) for t in inst.tasks])


@pytest.mark.parametrize("seed, block, rows, ties", _oracle_cases())
def test_offline_matches_oracle(seed, block, rows, ties, monkeypatch):
    monkeypatch.setattr(assign, "_CANDIDATE_BLOCK", block)
    monkeypatch.setattr(assign, "_ROW_BLOCK", rows)
    draws = []
    tie_pick = assign._tie_pick

    def counted_tie_pick(*args):
        draws.append(args)
        return tie_pick(*args)

    monkeypatch.setattr(assign, "_tie_pick", counted_tie_pick)
    inst = random_instance(seed)
    if ties:
        inst = _with_clones(inst)
    got_triples, got_kinds, want_triples, want_kinds = _run_both(inst)
    assert got_triples == want_triples, f"seed {seed}"
    assert got_kinds == want_kinds, f"seed {seed}"
    if ties and want_triples:
        # A placed task had a positive pair, so in the first round it and its
        # clone proposed that same pair to the same worker.
        assert draws, f"seed {seed}"


@pytest.mark.parametrize("ties", [False, True], ids=["plain", "ties"])
def test_offline_matches_oracle_on_a_contended_batch(ties, monkeypatch):
    # The micro-instances hold at most 4 tasks.  This generated batch queues
    # 120 tasks on 20 workers and runs 141 proposal rounds; with every task
    # cloned under a fresh id it holds 240 tasks and draws 2830 ties.
    draws = []
    tie_pick = assign._tie_pick
    monkeypatch.setattr(assign, "_tie_pick", lambda *args: draws.append(args) or tie_pick(*args))
    scenario = generate(GenParams(20, 300, urgent_fraction=0.5, horizon_min=1440.0), seed=4)
    now = 1260.0
    inst = Instance(
        tasks=[t for t in scenario.tasks if t.submit_time <= now < t.expiration],
        workers=scenario.workers,
        owners={o.id: o for o in scenario.owners},
        categories={c.id: c for c in scenario.categories},
        now=now,
        step=15.0,
        horizon=WEEK_MINUTES,
        velocity=scenario.velocity,
        seed=5,
    )
    if ties:
        inst = _with_clones(inst)
    got_triples, got_kinds, want_triples, want_kinds = _run_both(inst)
    assert len(inst.tasks) == (240 if ties else 120)
    assert bool(draws) == ties
    assert got_triples == want_triples
    assert got_kinds == want_kinds


def test_threshold_search_stops_only_below_the_cutoff(monkeypatch):
    # Row 1's bound (2T) puts it first, and its one pair scores T. Row 0's
    # bound is exactly T and its pair also scores T, which wins the tie on
    # worker id. So row 0 must be scored although T is known when the search
    # reaches it: the search stops at a bound below T, not at T. Row 2 shares
    # row 0's block; row 3's bound is below T, so it is left for the rebuilds.
    monkeypatch.setattr(assign, "_ROW_BLOCK", 1)
    T = 0.5
    totals = np.array([T, T, T / 2, T / 4])
    bound = np.array([T, 2 * T, T, T / 2])
    scored = []

    def score(rows):
        scored.append(sorted(rows.tolist()))
        total = totals[rows][:, None]
        ones = np.ones_like(total)
        return assign._Scores(total=total, ts=total, avail=ones, ttc=ones, travel_km=ones, rw=ones[:, 0], tw=ones[:, 0])

    cand = assign._Candidates(_task(1), priority=1.0)
    cand.load(score, bound, np.array([0.0]), cap=1)
    assert scored == [[1], [0, 2]]
    assert cand.w.tolist() == [0]
    # Moving past the prefix searches again with twice the cap; row 3 is
    # scored only once the cap exceeds the pairs at or above its bound.
    cand.pointer = 1
    assert cand.propose()
    assert cand.worker == 1
    assert len(scored) == 4
    cand.pointer = 2
    assert cand.propose()
    assert (cand.worker, cand.t0, cand.total) == (2, 0.0, T / 2)
    assert scored[-3:] == [[1], [0, 2], [3]]
    cand.pointer = 4
    assert not cand.propose()


def test_offline_outcomes_cover_every_task():
    for seed in range(40):
        inst = random_instance(seed)
        got_triples, got_kinds, _, _ = _run_both(inst)
        placed = {tid for tid, _, _ in got_triples}
        assert placed | set(got_kinds) == {t.id for t in inst.tasks}
        assert not placed & set(got_kinds)


def test_offline_is_deterministic():
    inst = random_instance(7)
    first = _run_both(inst)[:2]
    second = _run_both(inst)[:2]
    assert first == second


def test_offline_respects_existing_bookings():
    # Worker booked for the whole window: nothing can be placed on them.
    worker = _worker(1, bookings=[(0.0, 10_000.0)])
    grid = TimeGrid(15.0, 10_000.0)
    assignments, unassigned = offline_assign([_task(1)], _engine([worker]), 0.0, grid)
    assert assignments == []
    assert unassigned == [(1, OutcomeKind.NO_SUITABLE_WORKER)]


def test_offline_rejects_expired_input():
    with pytest.raises(ValueError):
        offline_assign([_task(1, expiration=50.0)], _engine([_worker()]), 50.0, TimeGrid())


def test_offline_empty_inputs():
    assert offline_assign([], _engine([_worker()]), 0.0, TimeGrid()) == ([], [])
    assignments, unassigned = offline_assign([_task(1)], _engine([]), 0.0, TimeGrid())
    assert assignments == []
    assert unassigned == [(1, OutcomeKind.NO_SUITABLE_WORKER)]


def test_offline_grid_ending_before_now_leaves_every_task_deadline_infeasible():
    tasks = [_task(1), _task(2, expiration=500.0)]
    grid = TimeGrid(step_min=15.0, horizon_min=30.0)
    assignments, unassigned = offline_assign(tasks, _engine([_worker()]), 60.0, grid)
    assert assignments == []
    assert unassigned == [(1, OutcomeKind.DEADLINE_INFEASIBLE), (2, OutcomeKind.DEADLINE_INFEASIBLE)]
    _, want = brute_force.offline_oracle(tasks, [_worker()], {1: OWNER}, {1: CAT}, 60.0, 15.0, 30.0, VEL)
    assert {tid: kind.value for tid, kind in unassigned} == want


def test_offline_conflict_cascade_with_seeded_tie():
    # Two identical tasks, one worker: the seeded draw picks the slot-0
    # winner and the loser falls back to the next grid time.
    tasks = [_task(1), _task(2)]
    worker = _worker(1)
    grid = TimeGrid(step_min=15.0, horizon_min=10_000.0)
    assignments, unassigned = offline_assign(tasks, _engine([worker]), 0.0, grid, rng_seed=3)
    assert unassigned == []
    by_task = {a.task_id: a for a in assignments}
    winner = brute_force.tie_pick(3, 1, [1, 2])
    loser = 1 if winner == 2 else 2
    assert by_task[winner].dispatch_time == 0.0
    assert by_task[loser].dispatch_time == 15.0
    # Different seed, possibly different winner — but always the same shape.
    assignments2, _ = offline_assign(tasks, _engine([worker]), 0.0, grid, rng_seed=4)
    assert sorted(a.dispatch_time for a in assignments2) == [0.0, 15.0]
    winner2 = brute_force.tie_pick(4, 1, [1, 2])
    assert {a.task_id for a in assignments2 if a.dispatch_time == 0.0} == {winner2}


def test_offline_priority_wins_conflicts():
    # Higher entered_priority proposes and is honoured first; the lower
    # priority task is pushed to the later slot.
    cat = TaskCategory(1, "c", 1.0, 20.0)  # keep priorities below the clamp
    urgent = _task(1, entered_priority=1.0)
    casual = _task(2, entered_priority=0.5)
    grid = TimeGrid(step_min=15.0, horizon_min=10_000.0)
    assignments, _ = offline_assign([casual, urgent], _engine([_worker()], [cat]), 0.0, grid)
    by_task = {a.task_id: a.dispatch_time for a in assignments}
    assert by_task[1] == 0.0
    assert by_task[2] == 15.0


def test_assignment_booking_interval():
    a = Assignment(1, 2, 30.0, None, ttc_min=25.0, travel_km=1.0)
    assert a.booking == (30.0, 55.0)


# -- online equivalence ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(200))
def test_online_matches_oracle(seed):
    inst = random_instance(seed)
    rng = random.Random(seed * 31 + 7)
    task = rng.choice(inst.tasks)
    owner = inst.owners[task.owner_id]
    cat = inst.categories[task.category_id]
    t = inst.now + rng.uniform(0.0, max(task.expiration - inst.now - 0.5, 0.1))
    if t >= task.expiration:
        t = inst.now
    if rng.random() >= 0.7:  # no raise budget: the same seeds cover the no-raise path
        owner = replace(owner, max_reward_raise=0.0)
        inst = replace(inst, owners={**inst.owners, owner.id: owner})
    exclude = frozenset(w.id for w in inst.workers if rng.random() < 0.2)
    out = online_assign(task, inst.engine(), t, exclude_workers=exclude)
    kind, wid, eff = brute_force.online_oracle(
        task,
        inst.workers,
        owner,
        cat,
        t,
        inst.velocity,
        exclude=exclude,
    )
    assert out.kind.value == kind, f"seed {seed}"
    got_wid = out.assignment.worker_id if out.assignment else None
    assert got_wid == wid, f"seed {seed}"
    assert out.effective_reward == eff, f"seed {seed}"


def test_online_picks_highest_total_lowest_id_tie():
    # Identical twins: the lower id wins the exact tie.
    workers = [_worker(2, x=4.0), _worker(1, x=4.0)]
    out = online_assign(_task(1), _engine(workers), 0.0)
    assert out.kind is OutcomeKind.ASSIGNED
    assert out.assignment.worker_id == 1


def test_online_reward_raise_steps_until_covered():
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=5.0)
    out = online_assign(_task(1, pto_reward=10.0), _engine([_worker(demand=12.0)], owners=[owner]), 0.0)
    assert out.kind is OutcomeKind.ASSIGNED
    assert out.effective_reward == 15.0
    assert out.assignment.breakdown.reward == pytest.approx((15.0 - 12.0) / 15.0)


def test_online_reward_raise_partial_final_increment():
    # Budget 5 in steps of 4: second step is the 1-unit remainder.
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=4.0)
    out = online_assign(_task(1, pto_reward=10.0), _engine([_worker(demand=14.5)], owners=[owner]), 0.0)
    assert out.kind is OutcomeKind.ASSIGNED
    assert out.effective_reward == 15.0


def test_online_reward_raise_exhausted_reports_reward_insufficient():
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=4.0)
    out = online_assign(_task(1, pto_reward=10.0), _engine([_worker(demand=19.0)], owners=[owner]), 0.0)
    assert out.kind is OutcomeKind.REWARD_INSUFFICIENT
    assert out.assignment is None


def test_online_raise_disabled():
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=0.0, raise_increment=5.0)
    out = online_assign(_task(1, pto_reward=10.0), _engine([_worker(demand=12.0)], owners=[owner]), 0.0)
    assert out.kind is OutcomeKind.REWARD_INSUFFICIENT


def test_online_already_raised_reduces_budget():
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=5.0)
    engine = _engine([_worker(demand=19.0)], owners=[owner])
    out = online_assign(_task(1, pto_reward=13.0), engine, 0.0, already_raised=3.0)
    # Only 2 of the 5-unit budget remains: 13 + 2 = 15 < 19.
    assert out.kind is OutcomeKind.REWARD_INSUFFICIENT
    kind, _, _ = brute_force.online_oracle(
        _task(1, pto_reward=13.0), [_worker(demand=19.0)], owner, CAT, 0.0, VEL, already_raised=3.0
    )
    assert kind == "reward-insufficient"


def test_online_deadline_infeasible():
    out = online_assign(_task(1, duration=500.0, expiration=240.0), _engine([_worker()]), 0.0)
    assert out.kind is OutcomeKind.DEADLINE_INFEASIBLE


def test_online_no_workers_or_all_excluded():
    out = online_assign(_task(1), _engine([]), 0.0)
    assert out.kind is OutcomeKind.NO_SUITABLE_WORKER
    out = online_assign(_task(1), _engine([_worker()]), 0.0, exclude_workers={1})
    assert out.kind is OutcomeKind.NO_SUITABLE_WORKER


def test_online_booked_worker_is_skipped():
    busy = _worker(1, x=5.0, bookings=[(0.0, 60.0)])
    free = _worker(2, x=2.0)
    out = online_assign(_task(1), _engine([busy, free]), 0.0)
    assert out.assignment.worker_id == 2


def test_online_expired_task_raises():
    with pytest.raises(TaskExpiredError):
        online_assign(_task(1, expiration=100.0), _engine([_worker()]), 100.0)


# -- nearest baseline ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_nearest_matches_oracle(seed):
    inst = random_instance(seed + 1000)
    rng = random.Random(seed)
    task = rng.choice(inst.tasks)
    t = inst.now
    exclude = frozenset(w.id for w in inst.workers if rng.random() < 0.25)
    out = baseline_nearest(task, inst.engine(), t, exclude_workers=exclude)
    want = brute_force.nearest_oracle(task, inst.workers, t, inst.velocity, exclude=exclude)
    got = out.assignment.worker_id if out.assignment else None
    assert got == want, f"seed {seed}"


def test_nearest_ignores_scores_entirely():
    # The nearer worker has zero availability and an unmet demand; a score
    # chooser would skip them, the distance baseline must not.
    near = Worker(
        id=1,
        pattern=WeeklySchedule((), default=Point(5.5, 5.0)),
        status=WeeklySchedule((), default=0.0),
        reward_demand={1: 99.0},
    )
    far = _worker(2, x=9.0)
    out = baseline_nearest(_task(1), _engine([near, far]), 0.0)
    assert out.assignment.worker_id == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("blocked_by", ["exclude", "booking"])
def test_nearest_picks_only_free_workers_when_every_distance_is_infinite(blocked_by):
    # 1e200 km squared overflows, so every distance is inf.  Worker 1 is
    # excluded or booked; the tie among the free workers goes to worker 2.
    task = _task(1, region=Point(1e200, 0.0))
    bookings = [(0.0, 1e9)] if blocked_by == "booking" else []
    workers = [_worker(1, x=0.0, bookings=bookings), _worker(2, x=0.0), _worker(3, x=0.0)]
    exclude = frozenset({1}) if blocked_by == "exclude" else frozenset()
    out = baseline_nearest(task, _engine(workers), 0.0, exclude_workers=exclude)
    assert out.assignment.worker_id == brute_force.nearest_oracle(task, workers, 0.0, VEL, exclude=exclude) == 2


def test_nearest_distance_tie_prefers_lower_id():
    out = baseline_nearest(_task(1), _engine([_worker(2, x=6.0), _worker(1, x=4.0)]), 0.0)
    assert out.assignment.worker_id == 1


# -- engine state -------------------------------------------------------------------


def test_engine_trust_refresh_changes_scores():
    worker = _worker(1, x=5.0)
    owners = [OWNER, replace(OWNER, id=2, pto_priority=0.4)]  # trust exponents 1 and 2.5
    engine = _engine([worker], owners=owners)
    tasks = [_task(1, owner_id=o.id) for o in owners]
    before = [engine.score_at(task, 0.0).total[0] for task in tasks]
    for event in ["assigned"] * 10 + ["accepted"]:
        engine.refresh_trust(worker.id, 1, event)
    live = engine.live_worker(worker.id)
    assert live.trust == {1: TrustCounters(assigned=10, accepted=1, completed=0)}
    assert worker.trust == {}
    for task, owner, old in zip(tasks, owners, before):
        s = engine.score_at(task, 0.0)
        want = total_score(task, live, owner, CAT, 0.0, VEL)
        assert s.tw[0] == want.trust_weighted
        assert s.total[0] == want.total
        assert s.total[0] < old


def test_outcome_constructors():
    out = AssignOutcome.failure(OutcomeKind.NO_SUITABLE_WORKER)
    assert out.assignment is None and out.effective_reward is None
    assert np.isscalar(out.kind.value)


# -- non-finite input and week-boundary lookups -----------------------------------


@pytest.mark.parametrize("reward, raised", [("nan", "nan - nan"), ("3.0", "nan"), ("inf", "0.0")])
def test_online_assign_rejects_non_finite_reward(reward, raised):
    # A NaN reward once made the raise loop spin forever, so the call runs in
    # a child process that is killed if it does not return.
    script = textwrap.dedent(
        f"""
        from math import inf, nan
        from crowdsim.assign import ScoreEngine, online_assign
        from crowdsim.model import Point, Task, TaskCategory, TaskOwner, Worker
        from crowdsim.schedule import WeeklySchedule
        from crowdsim.scoring import VelocityProfile

        vel = VelocityProfile(WeeklySchedule((), default=30.0), floor_kmh=5.0)
        worker = Worker(7, WeeklySchedule((), default=Point(5.0, 5.0)), WeeklySchedule((), default=1.0), {{1: 5.0}})
        owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=1.0)
        cat = TaskCategory(1, "c", 1.0, 5.0)
        task = Task(42, 1, 1, "t", Point(5.0, 5.0), 10.0, 240.0, {reward}, 1.0, 0.0)
        engine = ScoreEngine([worker], [cat], [owner], vel)
        try:
            online_assign(task, engine, 0.0, already_raised={raised})
        except ValueError as exc:
            print("rejected:", exc)
        """
    )
    src = str(Path(crowdsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: task 42:"), proc.stdout


@pytest.mark.parametrize("seed", range(300))
def test_engine_factors_equal_scalar_scores(seed):
    # Both vectorised paths give every factor bit for bit as scoring.total_score
    # does, at a piece end and one ulp either side of it as well as between
    # ends. The work interval's end is compared instead of ttc, because
    # (t + ttc) - t need not equal ttc in floats.
    inst = random_instance(seed)
    rng = random.Random(seed)
    engine = inst.engine()
    schedules = [inst.velocity.schedule] + [s for w in inst.workers for s in (w.pattern, w.status)]
    for task in inst.tasks:
        owner, cat = inst.owners[task.owner_id], inst.categories[task.category_id]
        times = {inst.now, rng.uniform(inst.now, task.expiration)}
        ends = sorted({e for s in schedules for e in s.piece_ends.tolist() if inst.now < e < task.expiration})
        if ends:
            end = rng.choice(ends)
            times |= {end, float(np.nextafter(end, -np.inf)), float(np.nextafter(end, np.inf))}
        times = sorted(t for t in times if t < task.expiration)
        grid = engine.score_grid(task, engine.grid_context(np.array(times)), len(times))
        for j, t in enumerate(times):
            at = engine.score_at(task, t)
            for i, w in enumerate(engine.workers):
                b = total_score(task, w, owner, cat, t, inst.velocity)
                want = (b.time_score, b.availability, b.reward, b.trust_weighted, b.total)
                end_want = brute_force.work_interval(task, w, t, inst.velocity)[1]
                for s, k in ((at, i), (grid, (i, j))):
                    got = (s.ts[k], s.avail[k], s.rw[i], s.tw[i], s.total[k])
                    assert got == want, (seed, task.id, w.id, t)
                    assert t + s.ttc[k] == end_want, (seed, task.id, w.id, t)


@pytest.mark.parametrize("seed", range(300))
def test_row_bounds_cover_every_positive_total(seed):
    # The threshold search is exact only if no row holds a positive total
    # above its bound; compared with plain >=, as the search compares. A row
    # subset scores the same as those rows of the full grid.
    inst = random_instance(seed)
    engine = inst.engine()
    times = TimeGrid(inst.step, inst.horizon).times(inst.now, before=max(t.expiration for t in inst.tasks))
    if not len(times):
        return
    ctx = engine.grid_context(times)
    for task in inst.tasks:
        k = int(np.searchsorted(times, task.expiration, side="left"))
        if k == 0:
            continue
        bound = engine.row_bounds(task, ctx, k)
        full = engine.score_grid(task, ctx, k)
        for i, j in zip(*np.nonzero(full.total > 0.0)):
            assert bound[i] >= full.total[i, j], (seed, task.id, i, j)
        rows = np.arange(len(engine.workers))[::-1]
        sub = engine.score_grid(task, ctx, k, rows)
        for name in ("total", "ts", "avail", "ttc", "travel_km", "rw", "tw"):
            assert np.array_equal(getattr(sub, name), getattr(full, name)[rows]), (seed, task.id, name)


@pytest.mark.parametrize("start_earliest", [None, 40.0])
def test_row_bound_is_reached_by_a_worker_at_the_task(start_earliest):
    # With no travel the bound's time score is the kernel's, so a worker at
    # the task's centroid has a pair whose total equals its row's bound.
    task = _task(1, start_earliest=start_earliest)
    engine = _engine([_worker(1, x=5.0, y=5.0), _worker(2, x=1.0, y=9.0)])
    times = TimeGrid(15.0, 10_000.0).times(0.0, before=task.expiration)
    ctx = engine.grid_context(times)
    bound = engine.row_bounds(task, ctx, len(times))
    total = engine.score_grid(task, ctx, len(times)).total
    assert total[0].max() > 0.0
    assert bound[0] == total[0].max()
    assert bound[1] > total[1].max()


def test_batch_scores_a_fraction_of_the_grid(monkeypatch):
    # One batch of the 200x500 benchmark canary population, at one of its
    # 6-hourly batch times: the threshold search must leave most (worker,
    # time) cells unscored, where a full grid scores them all.
    from crowdsim.workload import GenParams, generate

    scenario = generate(GenParams(200, 500, urgent_fraction=0.5), seed=0)
    now = 1260.0
    tasks = [t for t in scenario.tasks if t.submit_time <= now < t.expiration]
    engine = ScoreEngine(scenario.workers, scenario.categories, scenario.owners, scenario.velocity)
    grid = TimeGrid(15.0, WEEK_MINUTES)
    times = grid.times(now, before=max(t.expiration for t in tasks))
    full = sum(len(engine.workers) * int(np.searchsorted(times, t.expiration)) for t in tasks)
    cells = []
    score_grid = ScoreEngine.score_grid

    def counted(self, *args, **kwargs):
        s = score_grid(self, *args, **kwargs)
        cells.append(s.total.size)
        return s

    monkeypatch.setattr(ScoreEngine, "score_grid", counted)
    assignments, _ = offline_assign(tasks, engine, now, grid)
    assert len(tasks) >= 20 and assignments
    assert sum(cells) < full / 2, (sum(cells), full)


def test_scalar_and_vectorised_lookups_agree_just_below_zero():
    # -1e-13 % 10080.0 == 10080.0: the piece index must clamp to the last
    # piece (Sunday 23:00-24:00 here) on every path. Sunday 23:30 of the
    # second week lands in the same piece.
    late = Segment(frozenset({6}), 1380, 1440, 0.25)
    night = Worker(
        id=1,
        pattern=WeeklySchedule((Segment(frozenset({6}), 1380, 1440, Point(9.0, 1.0)),), default=Point(0.0, 0.0)),
        status=WeeklySchedule((late,), default=1.0),
    )
    vel = VelocityProfile(WeeklySchedule((Segment(frozenset({6}), 1380, 1440, 12.0),), default=30.0), 5.0)
    engine = _engine([night, _worker(2, x=3.0)], velocity=vel)
    task = _task(1, expiration=3 * WEEK_MINUTES)
    times = [-1e-13, 2 * WEEK_MINUTES - 30.0]
    ctx = engine.grid_context(np.array(times))
    for j, t in enumerate(times):
        assert night.pattern.value_at(t) == Point(9.0, 1.0)
        assert ctx.speed[j] == vel.speed_at(t) == 12.0
        s = engine.score_at(task, t)
        for i, w in enumerate(engine.workers):
            c = centroid(w.pattern.value_at(t))
            assert (ctx.x[i, j], ctx.y[i, j]) == (c.x, c.y)
            assert ctx.cum_status[i, j] == w.status.cumulative(t)
            b = total_score(task, w, OWNER, CAT, t, vel)
            assert (s.ts[i], s.avail[i], s.total[i]) == (b.time_score, b.availability, b.total)
