"""The benchmark in perfbench/ traces crowdsim by wrapping its entry points by name.

A renamed or re-signatured entry point would only show as a failed traced
benchmark run; this test applies the same wrappers to a small run instead.
"""

from pathlib import Path

import pytest

from crowdsim import cli
from crowdsim.workload import GenParams, generate, save

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("policy", ["psc", "sc-nearest"])
def test_perfbench_trace_hooks_wrap_a_run(policy, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    scenario = tmp_path / "scenario.json"
    save(generate(GenParams(30, 80, horizon_min=1440.0), seed=3), scenario)
    argv = ["run", "--scenario", str(scenario), "--policy", policy, "--out", str(tmp_path / "metrics.csv")]
    argv += ["--horizon-min", "1440", "--batch-times", "180,540,900"]
    tracer = spans.Tracer()
    spans.trace_crowdsim(tracer)
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.restore()

    assert spans.nesting_faults(tracer.spans) == []
    calls = spans.layer_metrics(tracer.spans, tracer.counts)
    assert calls["simulate.run.calls"] == 1
    assert calls["assign.refresh_trust.calls"] > 0
    if policy == "psc":
        # simulate calls the batch assigner under the name the benchmark wraps.
        assert calls["assign.offline_assign.calls"] > 0
        # One grid context per batch, as the benchmark's grid_context figures assume.
        assert calls["assign.grid_context.calls"] == calls["assign.offline_assign.calls"]
        assert calls["assign.offline_assign.tasks"] > 0
        assert calls["assign.score_grid.calls"] > 0
        assert calls["assign.score_at.calls"] > 0
    else:
        assert calls["assign.baseline_nearest.calls"] > 0
        assert calls["assign.score_at.calls"] == 0  # the baseline scores only its winner
        # The full booking mask is built only when the nearest worker is taken.
        assert calls["assign.availability_mask.calls"] < calls["assign.baseline_nearest.calls"]
