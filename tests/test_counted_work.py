"""The batch assigner's counted work on one small fixed run, pinned.

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
    # One factor-and-bound pass per batch, not one per task.
    "bound_passes": 12,
    # One threshold-search block per task here.
    "score_grid_calls": 120,
    "proposals": 632,
    # Pairs ordered and made Python numbers: each task's first chunk holds
    # 32, though most tasks here take only a few proposals.
    "pairs_converted": 3495,
}


def test_batch_work_is_pinned(monkeypatch):
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
    counted(assign.ScoreEngine, "score_grid", "score_grid_calls")
    counted(assign._Candidates, "propose", "proposals", lambda args, proposed: proposed)
    counted(assign, "_chunk_pairs", "pairs_converted", lambda args, pairs: len(args[0]))
    scenario = generate(GenParams(200, 500), seed=1)
    config = SimConfig(duration_min=2880.0, offline_batch_times=tuple(range(180, 2881, 180)), seed=0, policy="psc")
    report = simulate.run(scenario, config)
    assert report.counts["assigned"] == 147
    assert counts["bound_passes"] == counts["batches"]
    assert counts == PINNED
