"""The assigners' counted work on one small fixed run, pinned.

Wall time cannot resolve a 10% change on a shared machine; these counts are
the same on any machine.  A change that lowers a count updates the table
and says so; a change that raises one explains why.
"""

from crowdsim import assign, simulate
from crowdsim.simulate import SimConfig
from crowdsim.workload import GenParams, generate

#: ``GenParams(200, 500)`` seed 1, two days under psc with a batch every 180
#: minutes: 12 batches hold ready tasks, 120 tasks in all.
PINNED = {
    "batches": 12,
    # One bound pass per batch, not one per task.
    "bound_passes": 12,
    # Status-integral lookups: one per batch, for its grid times and its
    # tasks' expirations together, and one per online engine score.
    "status_lookups": 145,
    # One threshold-search block per task here.
    "score_grid_calls": 120,
    "proposals": 632,
    # Pairs ordered and made Python numbers: each task's first chunk holds
    # 32, though most tasks here take only a few proposals.
    "pairs_converted": 3495,
    # One per deciding worker per round: a worker whose new proposals all
    # clash with its bookings refuses them without deciding.
    "decides": 262,
    # One engine score and one booking mask per online decision, with no
    # reward raise on this run.
    "online_calls": 133,
    "score_at_calls": 133,
    "masks": 133,
    "nearest_calls": 0,
    # Every batch placement and every online one.
    "placements": 250,
}

#: The same run under sc-nearest: no batch, and the full booking mask only
#: when the nearest worker is taken (or none is finitely far).
PINNED_NEAREST = dict.fromkeys(PINNED, 0) | {
    "nearest_calls": 498,
    "masks": 27,
    # The winner's placement only: the nearest worker's booking is checked
    # before it is scored.
    "placements": 498,
}


def _counted_run(monkeypatch, policy: str) -> tuple[simulate.SimReport, dict[str, int]]:
    counts = dict.fromkeys(PINNED, 0)

    def counted(owner, name, key, amount=lambda args, result: 1):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(args, result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    counted(simulate, "offline_assign", "batches")
    counted(assign.ScoreEngine, "row_bounds", "bound_passes")
    counted(assign.ScoreEngine, "_cumulative", "status_lookups")
    counted(assign.ScoreEngine, "score_grid", "score_grid_calls")
    counted(assign._Candidates, "propose", "proposals", lambda args, proposed: proposed)
    counted(assign, "_chunk_pairs", "pairs_converted", lambda args, pairs: len(args[0]))
    counted(assign, "groupby", "decides")  # a decision groups its worker's ranked proposals once
    counted(simulate, "online_assign", "online_calls")
    counted(assign.ScoreEngine, "score_at", "score_at_calls")
    counted(assign, "_availability_mask", "masks")
    counted(simulate, "baseline_nearest", "nearest_calls")
    counted(assign, "_placement", "placements")
    scenario = generate(GenParams(200, 500), seed=1)
    config = SimConfig(duration_min=2880.0, offline_batch_times=tuple(range(180, 2881, 180)), seed=0, policy=policy)
    return simulate.run(scenario, config), counts


def test_batch_work_is_pinned(monkeypatch):
    report, counts = _counted_run(monkeypatch, "psc")
    assert report.counts["assigned"] == 147
    assert counts["bound_passes"] == counts["batches"]
    assert counts == PINNED


def test_nearest_work_is_pinned(monkeypatch):
    report, counts = _counted_run(monkeypatch, "sc-nearest")
    assert report.counts["assigned"] == 148
    assert counts == PINNED_NEAREST
