"""Assignment engines versus the plain-Python oracles, plus edge cases."""

import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute_force
from instances import Instance, live_worker, random_instance, random_status, random_worker

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
from crowdsim.model import Point, Task, TaskCategory, TaskOwner, TrustCounters, Worker, centroid, distance
from crowdsim.schedule import ALL_DAYS, WEEK_MINUTES, Segment, WeeklySchedule
from crowdsim.scoring import TaskExpiredError, VelocityProfile, reach, total_score
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
    """Every seed at five first row blocks of the threshold search, plain and with ties.

    Blocks of 1, 2, 3 and 5 rows make the search extend many times on these
    few-worker instances.  The ids keep the tags these cases had when the
    search also took a candidate cap, so each case's history stays under one
    name: the bare seed is the default block of 16 rows, ``block1`` and
    ``block2`` are blocks of 1 and 2 rows, and ``block1-rows1`` and
    ``block2-rows1`` are blocks of 3 and 5 rows.
    """
    tags = {16: [], 1: ["block1"], 2: ["block2"], 3: ["block1", "rows1"], 5: ["block2", "rows1"]}
    for ties in (False, True):
        for rows, tag in tags.items():
            for seed in range(200):
                yield pytest.param(seed, rows, ties, id="-".join([str(seed)] + ["ties"] * ties + tag))


def _with_clones(inst):
    """Each task again under a fresh id, so a copy ties with its original on (priority, total)."""
    offset = max(t.id for t in inst.tasks)
    return replace(inst, tasks=inst.tasks + [replace(t, id=t.id + offset) for t in inst.tasks])


@pytest.mark.parametrize("seed, rows, ties", _oracle_cases())
def test_offline_matches_oracle(seed, rows, ties, monkeypatch):
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
    # worker id. So row 0 must be scored before any pair of total T is
    # proposed: a pair is final only above the unscored rows' highest bound,
    # not at it. Row 2 shares row 0's block; row 3's bound (T/2) is below
    # every pair found by then, so it stays unscored until a pair of total
    # T/2 is proposed. Each propose() takes the next pair.
    monkeypatch.setattr(assign, "_ROW_BLOCK", 1)
    T = 0.5
    totals = np.array([T, T, T / 2, T / 4])
    scored = []

    def score(rows):
        scored.append(sorted(rows.tolist()))
        total = totals[rows][:, None]
        ones = np.ones_like(total)
        return assign._Scores(total=total, ts=total, avail=ones, ttc=ones, travel_km=ones, rw=ones[:, 0], tw=ones[:, 0])

    bound = np.array([T, 2 * T, T, T / 2])
    cand = assign._Candidates(_task(1), 1.0, score, bound, np.array([0.0]))
    assert cand.propose()
    assert (cand.worker, cand.total) == (0, T)
    assert scored == [[1], [0, 2]]
    assert cand.propose()
    assert (cand.worker, cand.total) == (1, T)
    assert scored == [[1], [0, 2]]
    assert cand.propose()
    assert (cand.worker, cand.t0, cand.t1, cand.total) == (2, 0.0, 1.0, T / 2)
    assert scored == [[1], [0, 2], [3]]
    assert cand.propose()
    assert (cand.worker, cand.total) == (3, T / 4)
    assert not cand.propose()
    assert cand.reason is OutcomeKind.NO_SUITABLE_WORKER
    assert len(scored) == 3


def test_threshold_search_scores_a_row_whose_bound_ties_a_found_total(monkeypatch):
    # Engine-level form of the test above.  Both workers stand at the task's
    # centroid, so each row's bound is its best total.  Worker 2 (trust 1,
    # bound 1/2) is scored first and holds a pair of total 1/4 at t = 80,
    # which is exactly worker 1's bound (time score 1/2 at t = 0, trust
    # 1/2).  Worker 2's pair at t = 0 clashes with a booking, so the task
    # takes its next pair: worker 1's at t = 0, which wins the tie on
    # worker id only if worker 1's row is scored before worker 2's pair of
    # 1/4 counts as final.
    monkeypatch.setattr(assign, "_ROW_BLOCK", 1)
    task = _task(1, duration=120.0, expiration=240.0)
    workers = [
        _worker(1, trust={1: TrustCounters(initial_score=0.5)}),
        _worker(2, trust={1: TrustCounters(initial_score=1.0)}, bookings=[(0.0, 10.0)]),
    ]
    engine = _engine(workers)
    times = TimeGrid(80.0, WEEK_MINUTES).times(0.0, before=task.expiration)
    ctx = engine.grid_context(times)
    assert engine.row_bounds(task, ctx, len(times)).tolist() == [0.25, 0.5]
    assert engine.score_grid(task, ctx, len(times)).total.tolist() == [[0.25, 0.125, -0.25], [0.5, 0.25, -0.5]]
    inst = Instance(
        tasks=[task],
        workers=workers,
        owners={1: OWNER},
        categories={1: CAT},
        now=0.0,
        step=80.0,
        horizon=WEEK_MINUTES,
        velocity=VEL,
        seed=0,
    )
    got_triples, got_kinds, want_triples, want_kinds = _run_both(inst)
    assert got_triples == want_triples == {(1, 1, 0.0)}
    assert got_kinds == want_kinds == {}


def _bits(*xs) -> list[str]:
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("block", [1, 16])
@pytest.mark.parametrize("seed", range(100))
def test_search_proposes_every_positive_cell_in_order(seed, block, monkeypatch):
    # Proposing until no pair is left walks the full grid's positive cells in
    # (total desc, worker id asc, time asc) order, however the rows are
    # blocked, and a proposal's assignment reports its cell's factors, from
    # the scalar reference, bit for bit.
    # The search is exact for any valid upper bound: a loosened one (scaled
    # by 1 + 2**-20, or +inf on a seeded third of the rows) changes which
    # rows are scored, never the proposals.
    monkeypatch.setattr(assign, "_ROW_BLOCK", block)
    inst = random_instance(seed)
    engine = inst.engine()
    rng = np.random.default_rng(seed)
    times = TimeGrid(inst.step, inst.horizon).times(inst.now, before=max(t.expiration for t in inst.tasks))
    if not len(times):
        return
    ctx = engine.grid_context(times)
    for task in inst.tasks:
        k = int(np.searchsorted(times, task.expiration, side="left"))
        full = engine.score_grid(task, ctx, k)
        cells = sorted(zip(*np.nonzero(full.total > 0.0)), key=lambda c: (-full.total[c], c[0], c[1]))
        exact = engine.row_bounds(task, ctx, k)
        inf_third = exact.copy()
        inf_third[rng.permutation(len(exact))[: (len(exact) + 2) // 3]] = np.inf
        for bound in (exact.copy(), exact * (1 + 2**-20), inf_third):
            cand = assign._Candidates(task, 1.0, partial(engine.score_grid, task, ctx, k), bound, times)
            got = []
            while cand.propose():
                got.append((cand.worker, cand.t0, cand.total))
                a = cand.assignment(engine)
                b = a.breakdown
                i, j = cells[len(got) - 1]
                assert a.dispatch_time == times[j]
                assert b.time_feasible
                got_bits = _bits(
                    b.time_score, b.availability, b.reward, b.trust_weighted, b.total, a.ttc_min, a.travel_km
                )
                cell = (full.ts[i, j], full.avail[i, j], full.rw[i], full.tw[i], full.total[i, j], full.ttc[i, j])
                assert got_bits == _bits(*cell, full.travel_km[i, j]), (seed, task.id, i, j)
            assert got == [(i, times[j], full.total[i, j]) for i, j in cells], (seed, task.id)


@pytest.mark.parametrize("block", [1, 2, 16])
@pytest.mark.parametrize("seed", range(100))
def test_pairs_yields_the_positive_cells_in_order(seed, block, monkeypatch):
    # _pairs on its own, over a synthetic score of a random totals matrix
    # whose totals repeat across rows.  A row's bound is at least its
    # largest positive total: exactly that total, a little or a level above
    # it, or +inf.  A row with no positive total has a NaN, zero, negative
    # or positive bound.  The stream is every positive cell as (row, time,
    # ttc, total) in (total desc, row asc, time asc) order, in Python
    # numbers, and no row is scored twice or with a bound that is not
    # positive.
    monkeypatch.setattr(assign, "_ROW_BLOCK", block)
    rng = np.random.default_rng(seed)
    n_rows, n_times = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    levels = [math.nan, -0.5, -0.0, 0.0, 0.125, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0]
    totals = rng.choice(levels, size=(n_rows, n_times))
    totals[rng.random(n_rows) < 0.3] = -1.0  # rows with no positive total
    ttc = rng.uniform(1.0, 60.0, size=(n_rows, n_times))
    times = np.cumsum(rng.uniform(1.0, 30.0, size=n_times))
    bound = np.empty(n_rows)
    for i, row in enumerate(totals):
        best = max((t for t in row.tolist() if t > 0.0), default=None)
        if best is None:
            bound[i] = rng.choice([math.nan, 0.0, -0.0, -1.0, -math.inf, 0.5, math.inf])
        else:
            bound[i] = rng.choice([best, best, best * (1 + 2**-52), best + 0.25, math.inf])
    scored = []

    def score(rows):
        scored.extend(rows.tolist())
        ones = np.ones((len(rows), n_times))
        total = totals[rows]
        return assign._Scores(total=total, ts=total, avail=ones, ttc=ttc[rows], travel_km=ones, rw=ones[:, 0], tw=ones[:, 0])

    cells = sorted(zip(*np.nonzero(totals > 0.0)), key=lambda c: (-totals[c], c[0], c[1]))
    want = [(int(i), float(times[j]), float(ttc[i, j]), float(totals[i, j])) for i, j in cells]
    got = list(assign._pairs(score, bound.copy(), times))
    assert got == want, seed
    assert all(type(i) is int and {type(x) for x in rest} == {float} for i, *rest in got)
    assert len(scored) == len(set(scored))
    assert all(bound[i] > 0.0 for i in scored), seed


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


def test_a_clashing_proposal_stays_in_its_tie_run(monkeypatch):
    # One worker at the tasks' centroid, booked on [90, 100).  Task 1 (two
    # hours, reward 4, time score 1/2, reward score 3/4) and tasks 2 and 3
    # (one hour, reward 2, 3/4 and 1/2) tie on priority (clamped to 1) and
    # on total, and each proposes t = 0 first.  Task 1's interval clashes
    # with the booking, yet the worker also receives free proposals, so it
    # decides with task 1 in the tie run: the seeded draw over ids 1, 2 and
    # 3 picks which of tasks 2 and 3 keeps t = 0.  In later rounds the
    # worker often receives only task 1's clashing proposals, and refuses them.
    draws = []
    tie_pick = assign._tie_pick
    monkeypatch.setattr(assign, "_tie_pick", lambda *args: draws.append(args) or tie_pick(*args))
    cat = TaskCategory(1, "c", 1.0, 1.0)
    worker = _worker(1, demand=1.0, bookings=[(90.0, 100.0)])
    tasks = [_task(1, duration=120.0, pto_reward=4.0)] + [_task(i, duration=60.0, pto_reward=2.0) for i in (2, 3)]
    engine = _engine([worker], [cat])
    totals = [engine.score_at(t, 0.0).total[0] for t in tasks]
    assert totals[0] == totals[1] == totals[2] > 0.0
    first = set()
    for seed in range(8):
        inst = Instance(tasks, [worker], {1: OWNER}, {1: cat}, 0.0, 15.0, WEEK_MINUTES, VEL, seed)
        draws.clear()
        got_triples, got_kinds, want_triples, want_kinds = _run_both(inst)
        assert got_triples == want_triples and got_kinds == want_kinds, seed
        assert draws[0] == (seed, 1, [1, 2, 3])
        first |= {tid for tid, _, t in got_triples if t == 0.0}
    assert first == {2, 3}


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
    if out.assignment:
        # The winner's report is the scalar one for the same worker under the raised reward.
        a, w = out.assignment, next(w for w in inst.workers if w.id == wid)
        raised = replace(task, pto_reward=eff)
        d = distance(task.region, w.pattern.value_at(t))
        want = total_score(raised, w, owner, cat, t, inst.velocity)
        assert _bits(*astuple(a.breakdown)) == _bits(*astuple(want)), f"seed {seed}"
        ttc = reach(raised, d, inst.velocity.speed_at(t), t)[1]
        assert _bits(a.ttc_min, a.travel_km) == _bits(ttc, d), f"seed {seed}"


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
    # Budget 5 in steps of 4: second step is the 1-unit remainder.  A raise
    # changes no booking or time to complete, so the booking mask is built
    # once; each raise rescores.
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=5.0, raise_increment=4.0)
    engine = _engine([_worker(demand=14.5)], owners=[owner])
    masks, scores = [], []
    mask, score_at = assign._availability_mask, ScoreEngine.score_at
    with (
        patch.object(assign, "_availability_mask", lambda *a: masks.append(a) or mask(*a)),
        patch.object(ScoreEngine, "score_at", lambda *a: scores.append(a) or score_at(*a)),
    ):
        out = online_assign(_task(1, pto_reward=10.0), engine, 0.0)
    assert out.kind is OutcomeKind.ASSIGNED
    assert out.effective_reward == 15.0
    assert (len(masks), len(scores)) == (1, 3)


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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_online_rejects_a_non_finite_time(t):
    # As total_score and the nearest baseline do; +inf is past any expiration, but is not a time.
    with pytest.raises(ValueError, match=f"task 1: dispatch time must be finite, got {t}") as info:
        online_assign(_task(1), _engine([_worker()]), t)
    assert info.type is ValueError


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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_nearest_winner_is_scored_on_the_live_state(seed, data):
    # Trust events, bookings and releases in any order: the baseline picks
    # the oracle's worker among the live records, and its breakdown is the
    # scalar score of the live worker, bit for bit.
    inst = random_instance(seed)
    engine = inst.engine()
    ids = [w.id for w in engine.workers]
    held = {w.id: list(w.bookings) for w in engine.workers}
    for _ in range(data.draw(st.integers(0, 20))):
        wid = data.draw(st.sampled_from(ids))
        step = data.draw(st.sampled_from(["trust", "book", "release"]))
        if step == "trust":
            cid = data.draw(st.sampled_from(sorted(inst.categories)))
            c = live_worker(engine, wid).trust_for(cid)
            events = ["assigned"] + ["accepted"] * (c.accepted < c.assigned)
            events += ["completed"] * (c.completed < c.accepted)
            engine.refresh_trust(wid, cid, data.draw(st.sampled_from(events)))
        elif step == "book":
            start = inst.now - 20.0 + data.draw(st.floats(0.0, 100.0))
            booking = (start, start + data.draw(st.floats(0.0, 40.0)))
            engine.book(wid, *booking)
            held[wid].append(booking)
        elif held[wid]:
            booking = data.draw(st.sampled_from(held[wid]))
            engine.release(wid, *booking)
            held[wid].remove(booking)
    t = inst.now + data.draw(st.floats(0.0, 60.0))
    task = data.draw(st.sampled_from(inst.tasks))
    if task.expiration <= t:
        task = replace(task, expiration=t + task.duration + 60.0)
    exclude = frozenset(data.draw(st.sets(st.sampled_from(ids))))
    out = baseline_nearest(task, engine, t, exclude_workers=exclude)
    live = {wid: live_worker(engine, wid) for wid in ids}
    assert [w.bookings for w in live.values()] == [sorted(held[wid]) for wid in ids]
    want = brute_force.nearest_oracle(task, live.values(), t, inst.velocity, exclude)
    if want is None:
        assert out.kind is OutcomeKind.NO_SUITABLE_WORKER
        return
    owner, cat = inst.owners[task.owner_id], inst.categories[task.category_id]
    assert out.assignment.worker_id == want
    assert out.assignment.breakdown == total_score(task, live[want], owner, cat, t, inst.velocity)


def _nearest_full_mask(task, engine, t, exclude) -> AssignOutcome:
    """The baseline with no nearest-worker fast path: the full booking mask on every decision."""
    x, y = engine._places(t)
    dist, _eff, ttc = engine._reach(task, t, x, y, engine.velocity.speed_at(t))
    free = assign._availability_mask(engine, ttc, t, exclude)
    if not free.any():
        return AssignOutcome(OutcomeKind.NO_SUITABLE_WORKER)
    i = int(np.argmin(np.where(free, dist, np.inf)))
    if not free[i]:
        i = int(np.argmax(free))
    worker = engine.workers[i]
    owner, cat = engine.owners[task.owner_id], engine.categories[task.category_id]
    breakdown = total_score(task, worker, owner, cat, t, engine.velocity)
    assignment = Assignment(task.id, worker.id, t, breakdown, float(ttc[i]), float(dist[i]))
    return AssignOutcome(OutcomeKind.ASSIGNED, assignment, task.pto_reward)


#: Bookings placed against a worker's work interval [t, end) in the nearest
#: fast-path test: the first two touch it without overlapping.
_EDGE_BOOKINGS = {
    "ends-at-t": lambda t, end: (t - 5.0, t),
    "starts-at-end": lambda t, end: (end, end + 5.0),
    "ends-an-ulp-after-t": lambda t, end: (t - 5.0, float(np.nextafter(t, np.inf))),
    "starts-an-ulp-before-end": lambda t, end: (float(np.nextafter(end, -np.inf)), end + 5.0),
    "covers": lambda t, end: (t - 10.0, end + 10.0),
    "far-later": lambda t, end: (end + 100.0, end + 200.0),
}


@settings(max_examples=400, deadline=None)
@given(
    places=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5),
    kinds=st.lists(st.sets(st.sampled_from(sorted(_EDGE_BOOKINGS)), max_size=2), min_size=5, max_size=5),
    excluded=st.sets(st.integers(1, 6)),
    t=st.sampled_from([0.0, 7.5, 600.0]),
    start_earliest=st.sampled_from([None, 0.0, 30.0, 650.0]),
)
@example(places=[], kinds=[set()] * 5, excluded=set(), t=0.0, start_earliest=None)  # no workers
@example(places=[(1, 2), (3, 2)], kinds=[{"covers"}] + [set()] * 4, excluded=set(), t=0.0, start_earliest=None)
@example(places=[(1, 2), (3, 2)], kinds=[{"covers"}] * 5, excluded=set(), t=7.5, start_earliest=30.0)
@example(places=[(2, 2), (2, 3)], kinds=[set()] * 5, excluded={1}, t=0.0, start_earliest=650.0)
def test_nearest_fast_path_matches_the_full_mask(places, kinds, excluded, t, start_earliest):
    # Workers on a small lattice around the task, so distances tie, each
    # with bookings that touch, just overlap or cover its work interval.
    # The decision is the full-mask path's and the oracle's, bit for bit,
    # and the full mask is built exactly when the nearest worker that is not
    # excluded is taken (or there is none).
    task = _task(1, region=Point(2.0, 2.0), start_earliest=start_earliest, expiration=t + 2000.0)
    workers, intervals = [], {}
    for wid, ((x, y), booked) in enumerate(zip(places, kinds), start=1):
        worker = _worker(wid, x=float(x), y=float(y))
        end = brute_force.work_interval(task, worker, t, VEL)[1]
        workers.append(replace(worker, bookings=[_EDGE_BOOKINGS[k](t, end) for k in sorted(booked)]))
        intervals[wid] = (distance(task.region, Point(float(x), float(y))), end)
    engine = _engine(workers)
    masks = []
    mask = assign._availability_mask
    with patch.object(assign, "_availability_mask", lambda *a: masks.append(a) or mask(*a)):
        got = baseline_nearest(task, engine, t, exclude_workers=excluded)
    want = _nearest_full_mask(task, engine, t, frozenset(excluded))
    assert repr(got) == repr(want)
    oracle = brute_force.nearest_oracle(task, workers, t, VEL, exclude=excluded)
    assert (got.assignment.worker_id if got.assignment else None) == oracle
    left = [w for w in workers if w.id not in excluded]
    nearest = min(left, key=lambda w: (intervals[w.id][0], w.id), default=None)
    taken = nearest is None or any(s < intervals[nearest.id][1] and e > t for s, e in nearest.bookings)
    assert len(masks) == taken


def test_one_time_places_and_speed_are_the_memoised_columns():
    # Two dispatch times in the same pattern and status pieces read the same
    # read-only array, so an online decision gathers no places or status
    # fields.  A status column holds each worker's integral up to its piece
    # start, its piece value and its piece start.  A grid's speeds are the
    # scalar reference's, bit for bit, on a floored piece and at its ends as
    # well.
    half = WeeklySchedule((Segment(ALL_DAYS, 0, 60, 0.5),), default=1.0)
    vel = VelocityProfile(WeeklySchedule((Segment(ALL_DAYS, 60, 120, 2.5),), default=30.0), floor_kmh=5.0)
    engine = _engine([_worker(1, x=1.0), replace(_worker(2, x=3.0), status=half)], velocity=vel)
    p1, p2 = (engine._places(t) for t in (10.0, 20.0 + WEEK_MINUTES))
    c1, c2, c3 = (engine._status.at(t) for t in (10.0, 20.0, 90.0))
    assert p1 is p2 and c1 is c2
    assert not (p1.flags.writeable or c1.flags.writeable or c3.flags.writeable)
    assert p1.tolist() == [[1.0, 3.0], [5.0, 5.0]]
    assert c1.tolist() == [[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]]
    assert c3.tolist() == [[0.0, 30.0], [1.0, 1.0], [0.0, 60.0]]
    times = [10.0, 60.0, 90.0, 120.0, 90.0 + WEEK_MINUTES, -1e-13]
    times += [float(np.nextafter(e, d)) for e in (60.0, 120.0) for d in (-np.inf, np.inf)]
    want = _bits(*(vel.speed_at(t) for t in times))
    assert _bits(*engine.grid_context(np.array(times)).speed) == want
    assert [_bits(*engine.grid_context(np.array([t])).speed) for t in times] == [[w] for w in want]
    assert want[:4] == _bits(30.0, 5.0, 5.0, 30.0)


# -- engine state -------------------------------------------------------------------


def test_engine_trust_refresh_changes_scores():
    worker = _worker(1, x=5.0)
    owners = [OWNER, replace(OWNER, id=2, pto_priority=0.4)]  # trust exponents 1 and 2.5
    engine = _engine([worker], owners=owners)
    tasks = [_task(1, owner_id=o.id) for o in owners]
    before = [engine.score_at(task, 0.0).total[0] for task in tasks]
    for event in ["assigned"] * 10 + ["accepted"]:
        engine.refresh_trust(worker.id, 1, event)
    live = live_worker(engine, worker.id)
    assert live.trust == {1: TrustCounters(assigned=10, accepted=1, completed=0)}
    assert worker.trust == {}
    for task, owner, old in zip(tasks, owners, before):
        s = engine.score_at(task, 0.0)
        want = total_score(task, live, owner, CAT, 0.0, VEL)
        assert s.tw[0] == want.trust_weighted
        assert s.total[0] == want.total
        assert s.total[0] < old


def test_outcome_constructors():
    out = AssignOutcome(OutcomeKind.NO_SUITABLE_WORKER)
    assert out.assignment is None and out.effective_reward is None
    assert np.isscalar(out.kind.value)


def test_engine_rejects_a_status_schedule_that_is_not_numeric():
    worker = replace(_worker(3), status=WeeklySchedule((), default="free"))
    with pytest.raises(TypeError, match="worker 3 status schedule is not numeric"):
        _engine([_worker(1), worker])


def test_engine_clamps_a_small_owner_priority_as_the_scalar_reference_does():
    owner = TaskOwner(1, pto_priority=0.01, max_reward_raise=0.0, raise_increment=1.0)
    worker = _worker(trust={1: TrustCounters(initial_score=0.9)})
    want = total_score(_task(), worker, owner, CAT, 0.0, VEL).trust_weighted
    assert want == 0.9 ** (1.0 / 0.05)
    assert _engine([worker], owners=[owner]).score_at(_task(), 0.0).tw[0] == want


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


def _check_engine_factors(inst: Instance, rng: random.Random) -> ScoreEngine:
    # Both vectorised paths give every factor bit for bit as scoring.total_score
    # does, at a piece end and one ulp either side of it as well as between
    # ends, and the distance and time to complete as scoring.reach does. The
    # work interval's end is also compared with the oracle's, because
    # (t + ttc) - t need not equal ttc in floats. One engine scores every
    # (task, time) pair in shuffled order, so later lookups are served from
    # the columns earlier ones memoised.
    seed = inst.seed
    engine = inst.engine()
    schedules = [inst.velocity.schedule] + [s for w in inst.workers for s in (w.pattern, w.status)]
    queries = []
    for task in inst.tasks:
        times = {inst.now, rng.uniform(inst.now, task.expiration)}
        ends = sorted({e for s in schedules for e in s.piece_ends if inst.now < e < task.expiration})
        if ends:
            end = rng.choice(ends)
            times |= {end, float(np.nextafter(end, -np.inf)), float(np.nextafter(end, np.inf))}
        queries.append((task, sorted(t for t in times if t < task.expiration)))
    rng.shuffle(queries)
    grids = [engine.score_grid(task, engine.grid_context(np.array(times)), len(times)) for task, times in queries]
    pairs = [(q, j) for q, (_task, times) in enumerate(queries) for j in range(len(times))]
    rng.shuffle(pairs)
    for q, j in pairs:
        task, t = queries[q][0], queries[q][1][j]
        owner, cat = inst.owners[task.owner_id], inst.categories[task.category_id]
        at = engine.score_at(task, t)
        for i, w in enumerate(engine.workers):
            b = total_score(task, w, owner, cat, t, inst.velocity)
            want = (b.time_score, b.availability, b.reward, b.trust_weighted, b.total)
            end_want = brute_force.work_interval(task, w, t, inst.velocity)[1]
            d = distance(task.region, w.pattern.value_at(t))
            reach_want = _bits(d, reach(task, d, inst.velocity.speed_at(t), t)[1])
            for s, k in ((at, i), (grids[q], (i, j))):
                got = (s.ts[k], s.avail[k], s.rw[i], s.tw[i], s.total[k])
                assert got == want, (seed, task.id, w.id, t)
                assert _bits(s.travel_km[k], s.ttc[k]) == reach_want, (seed, task.id, w.id, t)
                assert t + s.ttc[k] == end_want, (seed, task.id, w.id, t)
    return engine


@pytest.mark.parametrize("seed", range(300))
def test_engine_factors_equal_scalar_scores(seed):
    _check_engine_factors(random_instance(seed), random.Random(seed))


def test_engine_factors_equal_scalar_scores_as_the_memo_evicts(monkeypatch):
    # A memo of one status column, for a generated population whose
    # statuses have about a hundred piece ends: lookups evict columns and
    # build them again.  A status column holds three fields per status class
    # and a pattern column two places per worker; the population has fewer
    # classes than two thirds of its workers, so the same budget holds one
    # pattern column too, and score_at's places come from that memo as it evicts.
    scenario = generate(GenParams(20, 300, urgent_fraction=0.5, horizon_min=1440.0), seed=4)
    now = 600.0
    inst = Instance(
        tasks=[t for t in scenario.tasks if t.submit_time <= now < t.expiration][:40],
        workers=scenario.workers,
        owners={o.id: o for o in scenario.owners},
        categories={c.id: c for c in scenario.categories},
        now=now,
        step=15.0,
        horizon=WEEK_MINUTES,
        velocity=scenario.velocity,
        seed=4,
    )
    classes = len(inst.engine()._st_week)
    assert 3 * classes < 2 * len(inst.workers)
    monkeypatch.setattr(assign, "_COLUMN_MEMO_BYTES", np.zeros((3, classes)).nbytes)
    ranks: dict[int, set[int]] = {}
    at = assign._PieceTable.at

    def seen(table, tm):
        ranks.setdefault(id(table), set()).add(int(np.searchsorted(table._cuts, tm, side="right")))
        return at(table, tm)

    monkeypatch.setattr(assign._PieceTable, "at", seen)
    engine = _check_engine_factors(inst, random.Random(4))
    assert len(inst.tasks) == 40
    for table, capacity in ((engine._status, 1), (engine._pattern, 1)):
        assert table._capacity == capacity
        assert len(table._columns) <= capacity
    assert len(ranks[id(engine._status)]) > 8
    assert len(ranks[id(engine._pattern)]) > 1


@pytest.mark.parametrize("start_earliest", [None, 105.0, 650.0])
def test_scalar_reach_is_the_kernels_bit_for_bit(start_earliest):
    # scoring.reach, which times the nearest worker in the sc-nearest fast
    # path, gives the kernel's effective start and time to complete at the
    # speed and place piece ends and one ulp either side of them, on the
    # floored speed the engine memoises.  A start_earliest of 650 clamps
    # every start; one of 105 clamps only some.
    vel = VelocityProfile(WeeklySchedule((Segment(ALL_DAYS, 60, 120, 7.0),), default=31.0), floor_kmh=9.0)
    pattern = WeeklySchedule((Segment(ALL_DAYS, 90, 100, Point(1.3, 8.7)),), default=Point(0.1, 0.2))
    worker = Worker(1, pattern, WeeklySchedule((), default=1.0), {1: 0.0})
    engine = _engine([worker, _worker(2, x=3.3, y=1.7)], velocity=vel)
    task = _task(1, region=Point(5.1, 4.9), start_earliest=start_earliest, expiration=2000.0)
    ends = (60.0, 90.0, 100.0, 120.0)
    times = np.array([t for e in ends for t in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))])
    ctx = engine.grid_context(times)
    dist, eff, ttc = engine._reach(task, times, ctx.x, ctx.y, ctx.speed)
    clamped = set()
    for j, t in enumerate(times.tolist()):
        speed = float(ctx.speed[j])
        assert speed == vel.speed_at(t) == (9.0 if 60 <= t < 120 else 31.0)
        # The sc-nearest fallback's one-time kernel call gives the grid's column.
        one = engine._reach(task, t, *engine._places(t), speed)
        assert [_bits(*a) for a in one] == [_bits(*a[:, j]) for a in (dist, eff, ttc)], t
        for i, w in enumerate(engine.workers):
            d = distance(task.region, w.pattern.value_at(t))
            got = reach(task, d, speed, t)
            assert _bits(d, *got) == _bits(dist[i, j], eff[i, j], ttc[i, j]), (t, w.id)
            if got[0] == start_earliest:
                clamped.add((i, j))
    if start_earliest is None:
        assert not clamped
    else:
        assert 0 < len(clamped) <= dist.size
        assert (len(clamped) == dist.size) == (start_earliest == 650.0)


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


def _distinct_statuses(rng: random.Random, n: int) -> list[WeeklySchedule]:
    """``n`` random status schedules, no two with the same pieces."""
    found: dict[tuple, WeeklySchedule] = {}
    while len(found) < n:
        s = random_status(rng)
        found.setdefault((s.piece_starts, tuple(map(float, s.piece_values))), s)
    return list(found.values())


def _int_and_float_minutes(rng: random.Random) -> list[WeeklySchedule]:
    """One random status schedule written with int minutes and values, and with float ones."""
    a = rng.randrange(0, 1380, 30)
    b = rng.randrange(a + 30, 1441, 30)
    v, d = rng.choice([(0, 1), (1, 0)])
    as_int = WeeklySchedule((Segment(ALL_DAYS, a, b, v),), default=d)
    as_float = WeeklySchedule((Segment(ALL_DAYS, float(a), float(b), float(v)),), default=float(d))
    assert as_int == as_float and repr(as_int) != repr(as_float)
    return [as_int, as_float]


@pytest.mark.parametrize("case", ["distinct", "pool-of-3", "int-and-float"])
@pytest.mark.parametrize("seed", range(40))
def test_status_classes_give_the_per_worker_bounds_and_scores(seed, case):
    # The engine keeps one status row per distinct schedule.  On eight
    # random workers whose statuses are all distinct, drawn from a pool of
    # three, or one schedule written with int and with float minutes, every
    # bound equals the per-worker reference formula and every grid cell the
    # scalar score, bit for bit.  The pool holds a status below zero, which
    # a scenario may not declare, so that some classes' availability is
    # negative and their workers' bounds are +inf.
    rng = random.Random(seed)
    inst = random_instance(seed)
    workers = [random_worker(rng, wid, list(inst.categories)) for wid in range(1, 9)]
    if case == "distinct":
        statuses = _distinct_statuses(rng, len(workers))
    else:
        if case == "pool-of-3":
            pool = _distinct_statuses(rng, 2) + [WeeklySchedule((), default=-0.25)]
        else:
            pool = _int_and_float_minutes(rng)
        statuses = [rng.choice(pool) for _ in workers]
    inst = replace(inst, workers=[replace(w, status=s) for w, s in zip(workers, statuses)])
    engine = inst.engine()
    # One class per distinct set of pieces, numbered in worker order.
    pieces = [(s.piece_starts, tuple(map(float, s.piece_values))) for s in statuses]
    classes = engine._class.tolist()
    n = len(engine._st_week)
    assert n == {"distinct": 8, "int-and-float": 1}.get(case, len(set(pieces))) <= (3 if case == "pool-of-3" else 8)
    assert len(set(zip(pieces, classes))) == len(set(pieces)) == n
    assert list(dict.fromkeys(classes)) == list(range(n))
    times = TimeGrid(inst.step, inst.horizon).times(inst.now, before=max(t.expiration for t in inst.tasks))
    ctx = engine.grid_context(times)
    for task in inst.tasks:
        k = int(np.searchsorted(times, task.expiration, side="left"))
        if k == 0:
            continue
        owner, cat = inst.owners[task.owner_id], inst.categories[task.category_id]
        want = brute_force.row_bounds_per_worker(task, inst.workers, owner, cat, times[:k].tolist(), inst.velocity)
        assert _bits(*engine.row_bounds(task, ctx, k)) == _bits(*want), (seed, task.id)
        g = engine.score_grid(task, ctx, k)
        for i, w in enumerate(engine.workers):
            for j, t in enumerate(times[:k].tolist()):
                b = total_score(task, w, owner, cat, t, inst.velocity)
                got = _bits(g.ts[i, j], g.avail[i, j], g.total[i, j])
                assert got == _bits(b.time_score, b.availability, b.total), (seed, task.id, w.id, t)


def test_status_classes_keep_the_sign_of_zero():
    # 0.0 and -0.0 are equal floats with different bits, so they make two
    # classes, while 1 and 1.0 make one.
    statuses = [WeeklySchedule((), default=d) for d in (0.0, -0.0, 1, 1.0, 0.0)]
    engine = _engine([replace(_worker(i + 1), status=s) for i, s in enumerate(statuses)])
    assert engine._class.tolist() == [0, 1, 2, 2, 0]


def test_the_generated_week_population_has_eight_status_classes():
    # The generator draws 600 commuters with one status schedule and 400
    # others with one of seven start offsets: the shared schedules that
    # the engine computes availability for once each.
    scenario = generate(GenParams(1000, 5000), seed=1)
    engine = ScoreEngine(scenario.workers, scenario.categories, scenario.owners, scenario.velocity)
    assert len(engine._st_week) == 8
    assert np.bincount(engine._class)[0] == 600  # the first 600 workers commute


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


def _canary_batch() -> tuple[list[Task], ScoreEngine, float]:
    """The tasks, engine and time of one batch of the 200x500 benchmark canary population."""
    scenario = generate(GenParams(200, 500, urgent_fraction=0.5), seed=0)
    now = 1260.0
    tasks = [t for t in scenario.tasks if t.submit_time <= now < t.expiration]
    return tasks, ScoreEngine(scenario.workers, scenario.categories, scenario.owners, scenario.velocity), now


def test_batch_scores_a_fraction_of_the_grid(monkeypatch):
    # At one of the canary's 6-hourly batch times, the threshold search must
    # leave most (worker, time) cells unscored, where a full grid scores
    # them all.
    tasks, engine, now = _canary_batch()
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


def test_batch_builds_no_tasks_by_workers_matrix(monkeypatch):
    # In one canary batch, status integrals are looked up one time at a
    # time, one value per status class: once at each of the batch grid's
    # times, inside its one grid context, and otherwise at task
    # expirations.  A score block of fewer rows than workers looks up the
    # same per-class integrals as the whole: the batch builds no (tasks,
    # workers) temporary.
    tasks, engine, now = _canary_batch()
    grids, lookups, blocks, inside = [], [], [], []
    grid_context, cumulative, score = ScoreEngine.grid_context, ScoreEngine._cumulative, ScoreEngine.score_grid

    def traced_grid_context(self, times):
        grids.append(times)
        inside.append(True)
        try:
            return grid_context(self, times)
        finally:
            inside.pop()

    def traced_cumulative(self, t):
        out = cumulative(self, t)
        lookups.append((t, out, bool(inside), blocks[-1] if blocks else None))
        return out

    def traced_score(self, *args):
        rows = args[3] if len(args) > 3 else slice(None)
        blocks.append(np.arange(len(self.workers))[rows])
        try:
            return score(self, *args)
        finally:
            blocks.pop()

    monkeypatch.setattr(ScoreEngine, "grid_context", traced_grid_context)
    monkeypatch.setattr(ScoreEngine, "_cumulative", traced_cumulative)
    monkeypatch.setattr(ScoreEngine, "score_grid", traced_score)
    assignments, _ = offline_assign(tasks, engine, now, TimeGrid(15.0, WEEK_MINUTES))
    classes = len(engine._st_week)
    assert len(tasks) >= 20 and assignments and len(grids) == 1 and classes < len(engine.workers)
    assert all(np.ndim(t) == 0 and out.shape == (classes,) for t, out, _, _ in lookups)
    assert [t for t, _, grid, _ in lookups if grid] == grids[0].tolist()
    assert {t for t, _, grid, _ in lookups if not grid} == {t.expiration for t in tasks}
    in_blocks = [(t, out, rows) for t, out, _, rows in lookups if rows is not None]
    assert any(len(rows) < len(engine.workers) for _, _, rows in in_blocks)
    for t, out, _rows in in_blocks:
        assert np.array_equal(out, cumulative(engine, t))


def test_batch_records_keep_only_their_bound(monkeypatch):
    # A batched task's record and its pair generator hold the task's bound
    # as their one worker-wide array.  Its score partial holds the task, the
    # batch's shared grid context and the task's grid length: reward, trust
    # and the expiration integral are computed for each scored block, not
    # kept, and a suspended generator keeps no block's scores.
    tasks, engine, now = _canary_batch()
    records = []
    init = assign._Candidates.__init__

    def traced_init(self, *args):
        init(self, *args)
        records.append(self)
        held = {name: getattr(self, name) for name in self.__slots__}
        held.update(self.pairs.gi_frame.f_locals)
        wide = [
            name
            for name, a in held.items()
            if isinstance(a, np.ndarray) and name != "times" and len(a) == len(engine.workers)
        ]
        assert wide == ["bound"]

    monkeypatch.setattr(assign._Candidates, "__init__", traced_init)
    offline_assign(tasks, engine, now, TimeGrid(15.0, WEEK_MINUTES))
    assert len(records) == len(tasks)
    for c in records:
        held = (*c.score.args, *c.score.keywords.values())
        assert not any(isinstance(a, np.ndarray) for a in held)
        assert [type(a) for a in held] == [Task, assign.GridContext, int]
    suspended = [c.pairs.gi_frame.f_locals for c in records if c.pairs.gi_frame is not None]
    assert suspended
    assert not any(isinstance(a, assign._Scores) for frame in suspended for a in frame.values())


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
            assert ctx.cum_status[engine._class[i], j] == w.status.cumulative(t)
            b = total_score(task, w, OWNER, CAT, t, vel)
            assert (s.ts[i], s.avail[i], s.total[i]) == (b.time_score, b.availability, b.total)
