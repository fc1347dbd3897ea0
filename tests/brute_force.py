"""Plain-Python reference assigners used as oracles in the tests.

Everything here is built directly on the scalar scoring functions with
naive loops and lists — no numpy, no shared code with the vectorised
engine — so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random
from dataclasses import replace

from crowdsim.model import Task, TaskCategory, TaskOwner, Worker, distance
from crowdsim.scoring import VelocityProfile, task_priority_score, total_score


def grid_times(now: float, step: float, horizon: float, before: float) -> list[float]:
    times = []
    k = 0
    while True:
        t = now + step * k
        if t >= before or t > horizon:
            break
        times.append(t)
        k += 1
    return times


def work_interval(task: Task, worker: Worker, t: float, velocity: VelocityProfile) -> tuple[float, float]:
    """[dispatch, completion) interval implied by dispatching at ``t``."""
    travel = (distance(task.region, worker.pattern.value_at(t)) / velocity.speed_at(t)) * 60.0
    eff = t + travel
    if task.start_earliest is not None and eff < task.start_earliest:
        eff = task.start_earliest
    ttc = (eff + task.duration) - t
    return t, t + ttc


def _overlaps(iv: tuple[float, float], others) -> bool:
    s, e = iv
    return any(a < e and s < b for a, b in others)


def _classify(rows) -> str:
    """rows: (ts, avail, rw, tw) over every candidate pair of one task."""
    if not any(ts > 0 for ts, _, _, _ in rows):
        return "deadline-infeasible"
    if any(ts > 0 and av > 0 and tw > 0 and rw == 0 for ts, av, rw, tw in rows):
        return "reward-insufficient"
    return "no-suitable-worker"


def tie_pick(seed: int, worker_id: int, tied_ids) -> int:
    ids = sorted(tied_ids)
    return random.Random(f"{seed}|{worker_id}|{','.join(map(str, ids))}").choice(ids)


def offline_oracle(
    tasks,
    workers,
    owners: dict[int, TaskOwner],
    categories: dict[int, TaskCategory],
    now: float,
    step: float,
    horizon: float,
    velocity: VelocityProfile,
    seed: int = 0,
):
    """Reference batch assigner; returns (triples, unassigned_kinds).

    ``triples`` is a set of (task_id, worker_id, dispatch_time) and
    ``unassigned_kinds`` maps task_id -> reason string.
    """
    workers = sorted(workers, key=lambda w: w.id)
    cands: dict[int, list[tuple[float, int, float, float]]] = {}
    all_rows: dict[int, list] = {}
    priority: dict[int, float] = {}
    for task in tasks:
        owner, cat = owners[task.owner_id], categories[task.category_id]
        priority[task.id] = task_priority_score(task, owner, cat)
        rows, keep = [], []
        for w in workers:
            for t in grid_times(now, step, horizon, task.expiration):
                b = total_score(task, w, owner, cat, t, velocity)
                rows.append((b.time_score, b.availability, b.reward, b.trust_weighted))
                if b.total > 0:
                    _, end = work_interval(task, w, t, velocity)
                    keep.append((b.total, w.id, t, end))
        keep.sort(key=lambda r: (-r[0], r[1], r[2]))
        cands[task.id] = keep
        all_rows[task.id] = rows

    pointer = {t.id: 0 for t in tasks}
    active = [t.id for t in tasks if cands[t.id]]
    by_id = {w.id: w for w in workers}
    placed: dict[int, tuple[float, int, float, float]] = {}
    while True:
        placed.clear()
        proposals = {}
        nxt = []
        for tid in active:
            if pointer[tid] < len(cands[tid]):
                proposals[tid] = cands[tid][pointer[tid]]
                nxt.append(tid)
        active = nxt
        rejected = []
        for wid in sorted({p[1] for p in proposals.values()}):
            mine = [tid for tid, p in proposals.items() if p[1] == wid]
            mine.sort(key=lambda tid: (-priority[tid], -proposals[tid][0], tid))
            ordered = []
            i = 0
            while i < len(mine):
                j = i + 1
                key = (priority[mine[i]], proposals[mine[i]][0])
                while j < len(mine) and (priority[mine[j]], proposals[mine[j]][0]) == key:
                    j += 1
                run = mine[i:j]
                if len(run) > 1:
                    win = tie_pick(seed, wid, run)
                    run = [win] + [x for x in run if x != win]
                ordered.extend(run)
                i = j
            taken = list(by_id[wid].bookings)
            for tid in ordered:
                total, _, t0, end = proposals[tid]
                if _overlaps((t0, end), taken):
                    rejected.append(tid)
                else:
                    taken.append((t0, end))
                    placed[tid] = proposals[tid]
        if not rejected:
            break
        for tid in rejected:
            pointer[tid] += 1

    triples = {(tid, p[1], p[2]) for tid, p in placed.items()}
    unassigned = {}
    for task in tasks:
        if task.id in placed:
            continue
        if cands[task.id]:
            unassigned[task.id] = "no-suitable-worker"
        elif not all_rows[task.id]:
            unassigned[task.id] = "deadline-infeasible"
        else:
            unassigned[task.id] = _classify(all_rows[task.id])
    return triples, unassigned


def online_oracle(
    task: Task,
    workers,
    owner: TaskOwner,
    category: TaskCategory,
    t: float,
    velocity: VelocityProfile,
    *,
    exclude=frozenset(),
    already_raised: float = 0.0,
):
    """Reference greedy assigner; returns (kind, worker_id, effective_reward)."""
    workers = sorted(workers, key=lambda w: w.id)
    raised = already_raised
    eff = task
    while True:
        rows = []
        for w in workers:
            if w.id in exclude:
                continue
            b = total_score(eff, w, owner, category, t, velocity)
            iv = work_interval(eff, w, t, velocity)
            if _overlaps(iv, w.bookings):
                continue
            rows.append((w.id, b))
        if not rows:
            return "no-suitable-worker", None, None
        best_id, best = None, None
        for wid, b in rows:
            if b.total > 0 and (best is None or b.total > best.total):
                best_id, best = wid, b
        if best is not None:
            return "assigned", best_id, eff.pto_reward
        stats = [(b.time_score, b.availability, b.reward, b.trust_weighted) for _, b in rows]
        kind = _classify(stats)
        if kind == "reward-insufficient":
            inc = min(owner.raise_increment, owner.max_reward_raise - raised)
            if inc > 0:
                raised += inc
                eff = replace(eff, pto_reward=eff.pto_reward + inc)
                continue
        return kind, None, None


def nearest_oracle(task: Task, workers, t: float, velocity: VelocityProfile, exclude=frozenset()):
    """Reference distance-only pick; returns worker_id or None."""
    best_id, best_d = None, None
    for w in sorted(workers, key=lambda w: w.id):
        if w.id in exclude:
            continue
        if _overlaps(work_interval(task, w, t, velocity), w.bookings):
            continue
        d = distance(task.region, w.pattern.value_at(t))
        if best_d is None or d < best_d:
            best_id, best_d = w.id, d
    return best_id
