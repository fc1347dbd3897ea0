"""Whole simulated runs checked against the scalar oracles at every assigner call.

The oracle tests in ``test_assign`` start each call from a fresh engine.
Here the simulator plays generated scenarios, and every batch, online and
nearest decision it makes is compared, with ``==``, against the
``brute_force`` oracle run on the workers as the run stands at that call:
with the bookings and trust counters that the run has changed so far.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

import brute_force

from crowdsim import simulate
from crowdsim.assign import OutcomeKind
from crowdsim.scoring import total_score
from crowdsim.simulate import SimConfig, run
from crowdsim.workload import GenParams, generate

POLICIES = {
    "psc-batches": ("psc", (180.0, 540.0, 900.0, 1260.0)),
    "psc": ("psc", ()),
    "sc-nearest": ("sc-nearest", ()),
}


@lru_cache
def _scenario(seed: int):
    return generate(GenParams(30, 90, urgent_fraction=0.4, horizon_min=1440.0), seed=seed)


class _Checker:
    """Wraps the simulator's three assigners, checks each call and keeps each task's latest offer."""

    def __init__(self, scenario, monkeypatch):
        self.owners = {o.id: o for o in scenario.owners}
        self.categories = {c.id: c for c in scenario.categories}
        self.velocity = scenario.velocity
        self.offers = {}  # task id -> the latest assignment made for it
        self.calls = {"offline": 0, "online": 0, "nearest": 0}
        for name, check in (
            ("offline_assign", self.offline),
            ("online_assign", self.online),
            ("baseline_nearest", self.nearest),
        ):
            monkeypatch.setattr(simulate, name, check(getattr(simulate, name)))

    def _check(self, a, task, t, workers):
        """The offer's scores and work interval equal the scalar ones on the live worker."""
        w = next(w for w in workers if w.id == a.worker_id)
        owner, cat = self.owners[task.owner_id], self.categories[task.category_id]
        assert a.dispatch_time == t
        assert a.breakdown == total_score(task, w, owner, cat, t, self.velocity)
        assert a.booking[1] == brute_force.work_interval(task, w, t, self.velocity)[1]
        self.offers[a.task_id] = a

    def offline(self, real):
        def wrapped(tasks, engine, now, grid, rng_seed=0):
            workers = [engine.live_worker(w.id) for w in engine.workers]
            assignments, unassigned = real(tasks, engine, now, grid, rng_seed)
            want, want_kinds = brute_force.offline_oracle(
                tasks,
                workers,
                self.owners,
                self.categories,
                now,
                grid.step_min,
                grid.horizon_min,
                self.velocity,
                seed=rng_seed,
            )
            assert {(a.task_id, a.worker_id, a.dispatch_time) for a in assignments} == want
            assert {tid: kind.value for tid, kind in unassigned} == want_kinds
            by_id = {t.id: t for t in tasks}
            for a in assignments:
                self._check(a, by_id[a.task_id], a.dispatch_time, workers)
            self.calls["offline"] += 1
            return assignments, unassigned

        return wrapped

    def online(self, real):
        def wrapped(task, engine, t, *, already_raised=0.0, exclude_workers=()):
            workers = [engine.live_worker(w.id) for w in engine.workers]
            out = real(task, engine, t, already_raised=already_raised, exclude_workers=exclude_workers)
            owner, cat = self.owners[task.owner_id], self.categories[task.category_id]
            want = brute_force.online_oracle(
                task,
                workers,
                owner,
                cat,
                t,
                self.velocity,
                exclude=frozenset(exclude_workers),
                already_raised=already_raised,
            )
            got_wid = out.assignment.worker_id if out.assignment else None
            assert (out.kind.value, got_wid, out.effective_reward) == want
            if out.assignment:
                self._check(out.assignment, replace(task, pto_reward=out.effective_reward), t, workers)
            self.calls["online"] += 1
            return out

        return wrapped

    def nearest(self, real):
        def wrapped(task, engine, t, *, exclude_workers=()):
            workers = [engine.live_worker(w.id) for w in engine.workers]
            out = real(task, engine, t, exclude_workers=exclude_workers)
            want = brute_force.nearest_oracle(task, workers, t, self.velocity, exclude=frozenset(exclude_workers))
            if want is None:
                assert (out.kind, out.assignment) == (OutcomeKind.NO_SUITABLE_WORKER, None)
            else:
                assert (out.kind, out.assignment.worker_id, out.effective_reward) == (
                    OutcomeKind.ASSIGNED,
                    want,
                    task.pto_reward,
                )
                self._check(out.assignment, task, t, workers)
            self.calls["nearest"] += 1
            return out

        return wrapped


@pytest.mark.parametrize("delay", [0.0, 5.0, 45.0])
@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_decisions_match_oracles(seed, policy, delay, monkeypatch):
    scenario = _scenario(seed)
    checker = _Checker(scenario, monkeypatch)
    name, batch_times = POLICIES[policy]
    config = SimConfig(
        duration_min=max(t.expiration for t in scenario.tasks),
        offline_batch_times=batch_times,
        seed=seed,
        policy=name,
        response_delay_min=delay,
    )
    report = run(scenario, config)
    assert (checker.calls["offline"] > 0) == bool(batch_times)
    assert checker.calls["nearest" if name == "sc-nearest" else "online"] > 0

    # The final bookings are the scenario's plus those of the accepted tasks:
    # every rejected or expired offer was released.
    want = {w.id: list(w.bookings) for w in scenario.workers}
    for r in report.log:
        if r.event_kind == "accepted":
            a = checker.offers[r.task_id]
            assert a.worker_id == r.worker_id
            want[a.worker_id].append(a.booking)
    assert {w.id: w.bookings for w in report.final_workers} == {wid: sorted(b) for wid, b in want.items()}
