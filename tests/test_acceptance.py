"""Acceptance gate: one test (and one printed PASS line) per shipped guarantee.

Each criterion prints ``ACCEPTANCE CRITERION <n>: PASS — <what was checked>``
only after every assertion in it has held, so the run log carries an explicit
per-criterion verdict alongside pytest's own pass/fail lines.
"""

import math
import random
import sys
import time

import pytest

import brute_force
from instances import random_instance

from crowdsim.assign import TimeGrid, offline_assign
from crowdsim.cli import main
from crowdsim.model import Point, Task, TaskCategory, TaskOwner, TrustCounters, Worker
from crowdsim.schedule import ALL_DAYS, Segment, WeeklySchedule, WEEK_MINUTES
from crowdsim.scoring import (
    VelocityProfile,
    reward_score,
    time_score,
    total_score,
    trustworthy_score,
)
from crowdsim.simulate import SimConfig, run
from crowdsim.workload import GenParams, builtin_scenarios, generate


@pytest.fixture
def verdict(request):
    """Print a per-criterion verdict line that survives output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _print(n: int, label: str) -> None:
        line = f"ACCEPTANCE CRITERION {n}: PASS — {label}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:  # pragma: no cover - plain python fallback
            print(line)

    return _print


# -- 1: flower-delivery example ------------------------------------------------------


def test_criterion_1_flower_delivery_fidelity(verdict):
    t0 = time.perf_counter()
    sc = builtin_scenarios()["example1-flower-delivery"]

    psc = run(sc, SimConfig(duration_min=660.0, offline_batch_times=(180.0,), seed=0, policy="psc"))
    assert psc.counts["completed"] == 1
    assert psc.completion_fraction == 1.0
    psc_dispatches = [r for r in psc.log if r.event_kind == "dispatch"]
    assert [r.worker_id for r in psc_dispatches] == [1]  # worker A, the far free one

    near = run(sc, SimConfig(duration_min=660.0, seed=0, policy="sc-nearest"))
    seq = [(r.event_kind, r.worker_id) for r in near.log if r.event_kind in ("dispatch", "rejected")]
    assert seq[0] == ("dispatch", 2)  # worker B, nearest
    assert seq[1] == ("rejected", 2)
    assert near.counts["completed"] == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    verdict(1, "flower-delivery: psc goes straight to the free worker; nearest-first wastes an offer")


# -- 2: high-entropy example ---------------------------------------------------------


def test_criterion_2_high_entropy_fidelity(verdict):
    t0 = time.perf_counter()
    sc = builtin_scenarios()["example2-high-entropy"]

    psc = run(sc, SimConfig(duration_min=780.0, offline_batch_times=(180.0,), seed=0, policy="psc"))
    psc_dispatches = [r.worker_id for r in psc.log if r.event_kind == "dispatch"]
    assert psc_dispatches == [21]  # the lone distant high-status worker
    assert psc.counts["completed"] == 1

    near = run(sc, SimConfig(duration_min=780.0, seed=0, policy="sc-nearest"))
    near_dispatches = [r.worker_id for r in near.log if r.event_kind == "dispatch"]
    assert near_dispatches[0] in range(1, 21)  # a clustered low-status worker
    assert near_dispatches[0] == 20

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    verdict(2, "high-entropy cluster: psc skips the crowd, nearest-first dives into it")


# -- 3: batch assigner vs brute force ------------------------------------------------


def test_criterion_3_offline_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    for seed in range(200):
        inst = random_instance(seed)
        grid = TimeGrid(step_min=inst.step, horizon_min=inst.horizon)
        assignments, unassigned = offline_assign(inst.tasks, inst.engine(), inst.now, grid, rng_seed=inst.seed)
        got = {(a.task_id, a.worker_id, a.dispatch_time) for a in assignments}
        got_kinds = {tid: kind.value for tid, kind in unassigned}
        want, want_kinds = brute_force.offline_oracle(
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
        assert got == want, f"instance seed {seed}"
        assert got_kinds == want_kinds, f"instance seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    verdict(3, "200 random micro-instances: batch assigner equals brute-force enumeration")


# -- 4: formula unit values ----------------------------------------------------------


def test_criterion_4_formula_unit_values(verdict):
    tol = 1e-9
    task = Task(
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
    # Half the window left when the work would take half the window.
    assert abs(time_score(task, ttc=60.0, t=0.0) - 0.5) < tol

    # Free for exactly the first half of the window.
    worker = Worker(
        id=1,
        pattern=WeeklySchedule((), default=Point(0.0, 0.0)),
        status=WeeklySchedule((Segment(frozenset({0}), 0, 60, 1.0),), default=0.0),
        reward_demand={1: 4.0},
        trust={1: TrustCounters(initial_score=0.8)},
    )
    owner = TaskOwner(1, pto_priority=1.0, max_reward_raise=0.0, raise_increment=1.0)
    cat = TaskCategory(1, "c", 1.0, 5.0)
    vel = VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0)
    b = total_score(task, worker, owner, cat, 0.0, vel)
    assert abs(b.availability - 0.5) < tol

    # Reward 10 against demand 4.
    assert abs(reward_score(task, worker, cat) - 0.6) < tol

    # (1*(8/10) + 2*(6/8)) / 3 = 0.7666...
    counters = TrustCounters(assigned=10, accepted=8, completed=6)
    assert abs(trustworthy_score(counters) - 0.7666666666666666) < tol

    verdict(4, "frozen formula values (0.5, 0.5, 0.6, 0.76667) at 1e-9")


# -- 5: property suites, 1000 cases each ----------------------------------------------


def _scoring_properties(n_cases: int) -> None:
    rng = random.Random(91)
    vel = VelocityProfile(schedule=WeeklySchedule((), default=30.0), floor_kmh=5.0)
    for _ in range(n_cases):
        window = rng.uniform(10.0, 600.0)
        task = Task(
            id=1,
            owner_id=1,
            category_id=1,
            description="t",
            region=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            duration=rng.uniform(1.0, 90.0),
            expiration=window,
            pto_reward=rng.uniform(0.5, 20.0),
            entered_priority=rng.uniform(0.05, 1.0),
            submit_time=0.0,
        )
        worker = Worker(
            id=1,
            pattern=WeeklySchedule((), default=Point(rng.uniform(0, 10), rng.uniform(0, 10))),
            status=WeeklySchedule((), default=rng.uniform(0.0, 1.0)),
            reward_demand={1: rng.uniform(0.0, 25.0)},
            trust={
                1: TrustCounters(
                    assigned=(a := rng.randrange(0, 8)),
                    accepted=(c := rng.randrange(0, a + 1)),
                    completed=rng.randrange(0, c + 1),
                    initial_score=rng.uniform(0.0, 1.0),
                )
            },
        )
        owner = TaskOwner(1, rng.uniform(0.05, 1.0), 0.0, 1.0)
        cat = TaskCategory(1, "c", rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0))
        t = rng.uniform(0.0, window * 0.95)
        b = total_score(task, worker, owner, cat, t, vel)
        # Ranges.
        assert b.time_score <= 1.0
        assert 0.0 <= b.availability <= 1.0 + 1e-12
        assert 0.0 <= b.reward <= 1.0
        assert 0.0 <= b.trust_weighted <= 1.0 + 1e-12
        assert b.total <= 1.0 + 1e-12
        # Gating: any zero factor zeroes the product; feasibility flag is honest.
        if b.reward == 0.0 or b.availability == 0.0:
            assert b.total == 0.0 or b.time_score <= 0.0
        assert b.time_feasible == (b.time_score > 0.0)
        # Monotonicity: a later dispatch with the same ttc never scores higher.
        ttc = rng.uniform(0.0, window)
        t2 = rng.uniform(t, window * 0.99)
        assert time_score(task, ttc, t2) <= time_score(task, ttc, t) + 1e-12
        # Monotonicity: raising the reward never lowers the reward factor.
        richer = Task(
            id=1,
            owner_id=1,
            category_id=1,
            description="t",
            region=task.region,
            duration=task.duration,
            expiration=task.expiration,
            pto_reward=task.pto_reward + rng.uniform(0.0, 5.0),
            entered_priority=task.entered_priority,
            submit_time=0.0,
        )
        assert reward_score(richer, worker, cat) >= reward_score(task, worker, cat) - 1e-12


def _schedule_properties(n_cases: int) -> None:
    rng = random.Random(17)
    for _ in range(n_cases):
        default = rng.uniform(0.0, 1.0)
        segments = []
        day_windows = sorted(rng.sample(range(0, 1440, 60), 2))
        if rng.random() < 0.8:
            segments.append(Segment(ALL_DAYS, day_windows[0], day_windows[1], rng.uniform(0.0, 1.0)))
        sched = WeeklySchedule(tuple(segments), default=default)
        a = rng.uniform(0.0, 2.0 * WEEK_MINUTES)
        b = a + rng.uniform(0.0, WEEK_MINUTES)
        c = b + rng.uniform(0.0, WEEK_MINUTES)
        # Additivity of the cumulative integral.
        lhs = sched.integral(a, c)
        rhs = sched.integral(a, b) + sched.integral(b, c)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
        # Weekly periodicity of both the value and the integral.
        t = rng.uniform(0.0, WEEK_MINUTES)
        assert sched.value_at(t) == sched.value_at(t + WEEK_MINUTES)
        shifted = sched.integral(a + WEEK_MINUTES, c + WEEK_MINUTES)
        assert abs(shifted - lhs) <= 1e-9 * max(1.0, abs(lhs))
        # Bounded by the extremes times the span.
        values = [default] + [s.value for s in segments]
        assert min(values) * (c - a) - 1e-9 <= lhs <= max(values) * (c - a) + 1e-9


def _simulate_properties(n_cases: int) -> None:
    for case in range(n_cases):
        sc = generate(
            GenParams(n_workers=3, n_tasks=6, horizon_min=720.0, n_categories=2, n_owners=2),
            seed=case,
        )
        policy = "psc" if case % 2 == 0 else "sc-nearest"
        batches = (120.0, 480.0) if case % 3 == 0 else ()
        rep = run(sc, SimConfig(duration_min=720.0, offline_batch_times=batches, seed=case, policy=policy))
        c = rep.counts
        # Conservation: every submitted task ends in exactly one terminal state.
        assert c["completed"] + c["expired"] + c["unassignable"] == c["submitted"], f"case {case}"
        # Count ordering along the funnel.
        assert c["completed"] <= c["accepted"] <= c["assigned"] <= c["submitted"], f"case {case}"


def test_criterion_5_property_suites(verdict):
    _scoring_properties(1000)
    _schedule_properties(1000)
    _simulate_properties(1000)
    verdict(5, "3 property suites x 1000 randomized cases (scores, schedules, simulation funnel)")


# -- 6: byte determinism ----------------------------------------------------------------


def test_criterion_6_byte_identical_csv(tmp_path, verdict):
    outputs = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics-{tag}.csv"
        events = tmp_path / f"events-{tag}.csv"
        rc = main(
            [
                "run",
                "--scenario",
                "example2-high-entropy",
                "--policy",
                "sc-nearest",
                "--seed",
                "11",
                "--out",
                str(metrics),
                "--events",
                str(events),
            ]
        )
        assert rc == 0
        outputs.append((metrics.read_bytes(), events.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    verdict(6, "repeated runs emit byte-identical metrics and event CSVs")


# -- 7: the score policy beats nearest-first -----------------------------------------------


def test_criterion_7_throughput_advantage(verdict):
    t0 = time.perf_counter()
    params = GenParams(
        n_workers=200,
        n_tasks=500,
        horizon_min=10080.0,
        status_levels=(0.1, 0.5, 0.9),
        urgent_fraction=0.5,
        lead_range=(180, 1440),
    )
    scenario = generate(params, seed=0)
    batches = tuple(180.0 + 360.0 * k for k in range(28))
    base = dict(
        duration_min=10080.0,
        offline_batch_times=batches,
        response_delay_min=10.0,
    )
    psc_perf, near_perf = [], []
    for seed in range(20):
        psc_perf.append(run(scenario, SimConfig(seed=seed, policy="psc", **base)).performance_def1)
        near_perf.append(run(scenario, SimConfig(seed=seed, policy="sc-nearest", **base)).performance_def1)

    mean_psc = sum(psc_perf) / len(psc_perf)
    mean_near = sum(near_perf) / len(near_perf)
    wins = sum(p > n for p, n in zip(psc_perf, near_perf))
    # One-sided sign test: P(X >= wins | fair coin, ties counted against).
    p_value = sum(math.comb(20, k) for k in range(wins, 21)) / 2.0**20

    assert mean_psc > mean_near, f"means: psc {mean_psc:.4f} vs nearest {mean_near:.4f}"
    assert p_value < 0.05, f"{wins}/20 wins, sign-test p={p_value:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    verdict(
        7,
        f"200x500x1-week throughput: psc {mean_psc:.3f}/h vs nearest {mean_near:.3f}/h, "
        f"{wins}/20 seed wins (p={p_value:.2g})",
    )


# -- 8: scale budget -------------------------------------------------------------------------


def test_criterion_8_scale_budget(verdict):
    scenario = generate(GenParams(n_workers=1000, n_tasks=5000, horizon_min=10080.0), seed=0)
    batches = tuple(180.0 + 1440.0 * k for k in range(7))
    t0 = time.perf_counter()
    rep = run(
        scenario,
        SimConfig(duration_min=10080.0, offline_batch_times=batches, seed=0, policy="psc"),
    )
    elapsed = time.perf_counter() - t0
    assert rep.counts["submitted"] == 5000
    assert rep.counts["completed"] > 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    verdict(8, f"1000 workers x 5000 tasks x 1 week simulated in {elapsed:.1f}s (< 60s)")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
