"""Tests for the benchmark's own helpers: python3 -m pytest perfbench"""

from __future__ import annotations

import statistics
import time
from enum import Enum
from types import SimpleNamespace

import pytest

from checks import digest, pinned_digest, report_problems
from spans import Tracer, covered, layer_metrics, nesting_faults, self_times
from stats import median, percentile
from workloads import WORKLOADS, batch_times


# -- percentiles ----------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == 2.5
    assert percentile(xs, 25) == pytest.approx(1.75)
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)


def test_median_matches_statistics_module():
    for xs in ([5.0], [1.0, 9.0], [3.0, 1.0, 2.0], [0.5, 0.25, 8.0, 2.0, 1.0, 4.0]):
        assert median(xs) == statistics.median(xs)


def test_percentile_edges():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self-time arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (8.0, 15.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (1.5, 1.8), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_is_duration_minus_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert nesting_faults(spans) == []


def test_nesting_faults_flag_children_longer_than_parent():
    spans = [("root", 0.0, 1.0, -1), ("a", 0.0, 0.8, 0), ("b", 0.5, 1.0, 0)]
    faults = nesting_faults(spans)
    assert len(faults) == 1 and "root" in faults[0]
    assert nesting_faults([("x", 2.0, 1.0, -1)]) == ["span 0 (x) ends before it starts"]


def test_tracer_records_nested_spans_and_restores():
    calls = []
    ns = SimpleNamespace(outer=None, inner=lambda x: calls.append(x) or x * 2)
    ns.outer = lambda x: ns.inner(x) + 1
    tracer = Tracer()
    original_inner = ns.inner
    tracer.wrap(ns, "inner", "inner", after=lambda idx, args, result: tracer.counts.update(seen=result))
    tracer.wrap(ns, "outer", "outer")
    assert ns.outer(3) == 7
    tracer.restore()
    assert ns.inner is original_inner
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert tracer.counts["seen"] == 6
    assert all(t >= 0 for t in self_times(tracer.spans))
    assert nesting_faults(tracer.spans) == []


def test_excluded_time_is_taken_off_enclosing_spans():
    tracer = Tracer()

    def checked():
        t0 = time.perf_counter()
        time.sleep(0.05)  # stands for work outside the traced program
        tracer.exclude(time.perf_counter() - t0)

    ns = SimpleNamespace(f=checked)
    tracer.wrap(ns, "f", "f")
    ns.f()
    ((_name, start, end, _parent),) = tracer.spans
    assert 0.0 <= end - start < 0.04


def test_layer_metrics_derives_counts_and_self_times():
    spans = [
        ("simulate.run", 0.0, 10.0, -1),
        ("assign.online_assign", 1.0, 3.0, 0),
        ("assign.score_at", 1.0, 1.5, 1),
        ("assign.score_at", 1.5, 2.0, 1),  # one reward raise
        ("assign.availability_mask", 2.0, 2.5, 1),
        ("assign.offline_assign", 4.0, 8.0, 0),
        ("assign.score_grid", 4.0, 5.0, 5),
    ]
    counts = {"online_assigned": 1, "batch_tasks": 4, "batch_placed": 3, "grid_cells": 10, "grid_positive": 4,
              "candidate_rebuilds": 0}  # fmt: skip
    m = layer_metrics(spans, counts)
    assert m["simulate.run.self_s"] == pytest.approx(4.0)
    assert m["assign.online_assign.self_s"] == pytest.approx(0.5)
    assert m["assign.online_assign.raise_retries"] == 1
    assert m["assign.online_assign.assigned_frac"] == 1.0
    assert m["assign.score_at.calls"] == 2
    assert m["assign.decision_ms.p50"] == pytest.approx(2000.0)
    assert m["assign.offline_assign.placed_frac"] == 0.75
    assert m["assign.batch_plan_s.max"] == pytest.approx(4.0)
    assert m["assign.score_grid.positive_frac"] == 0.4
    assert m["assign.baseline_nearest.calls"] == 0 and m["cli.self_s"] == 0.0


# -- output checks ----------------------------------------------------------------


def test_digest_depends_on_bytes_and_file_boundaries(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    a.write_bytes(b"xy")
    b.write_bytes(b"z")
    c.write_bytes(b"xyz")
    first = digest([a, b])
    assert first == digest([a, b])
    assert len(first) == 64
    assert digest([c]) != digest([a, b])
    b.write_bytes(b"Z")
    assert digest([a, b]) != first


def test_pinned_digest_lookup():
    pins = {"canary": "aa", "week": {"3": "bb"}}
    assert pinned_digest(pins, "canary") == "aa"
    assert pinned_digest(pins, "week", 3) == "bb"
    assert pinned_digest(pins, "week", 4) is None
    assert pinned_digest(pins, "other", 3) is None


class _State(str, Enum):
    QUEUED = "queued"
    COMPLETED = "completed"
    EXPIRED = "expired"


def _report(log, states, **counts):
    base = {"submitted": 2, "assigned": 1, "accepted": 1, "completed": 1, "expired": 1, "unassignable": 0}
    base.update(counts)
    rows = [SimpleNamespace(event_kind=kind, task_id=tid) for kind, tid in log]
    return SimpleNamespace(counts=base, log=rows, task_state=states)


def test_report_problems_accepts_a_sound_report():
    log = [("submitted", 1), ("submitted", 2), ("dispatch", 1), ("completed", 1), ("expired", 2)]
    assert report_problems(_report(log, {1: _State.COMPLETED, 2: _State.EXPIRED})) == []


def test_report_problems_catches_funnel_and_terminal_faults():
    log = [("submitted", 1), ("submitted", 2), ("completed", 1), ("completed", 1)]
    problems = report_problems(_report(log, {1: _State.COMPLETED, 2: _State.QUEUED}, accepted=0))
    text = " | ".join(problems)
    assert "funnel broken" in text
    assert "exactly one terminal event" in text
    assert "live state" in text


def test_workload_command_lines():
    assert batch_times(180, 180).split(",")[-1] == "10080"
    assert len(batch_times(180, 180).split(",")) == 56
    assert len(batch_times(180, 360).split(",")) == 28
    for w in WORKLOADS.values():
        assert "{scenario}" in w.command
        assert all(any(f"{{out}}/{name}" == a for a in w.command) for name in w.outputs)
