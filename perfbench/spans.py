"""Span tracing around crowdsim's public entry points, from outside the package.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span (name, start, end, parent) per call in memory. Spans are written
out only when the run ends. The tracer's own bookkeeping after each call is
timed and taken off the clock that stamps spans, so layer times exclude it;
the remaining cost shows as tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import csv
import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Sequence

from stats import percentile

Span = tuple[str, float, float, int]  # name, start, end, parent index (-1 for a root)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._skew = 0.0  # seconds of bookkeeping taken off the span clock
        self._patched: list[tuple[object, str, object]] = []

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the traced program off the span clock."""
        self._skew += seconds

    def wrap(self, owner: object, attr: str, name: str, after: Callable | None = None) -> None:
        """Trace ``owner.attr`` as spans called ``name``.

        ``after(span_index, args, result)`` runs after each call, off the clock.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter() - self._skew
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter() - self._skew
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                b0 = perf_counter()
                after(idx, args, result)
                self._skew += perf_counter() - b0
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(("name", "start_s", "end_s", "parent"))
            for name, start, end, parent in self.spans:
                w.writerow((name, f"{start:.9f}", f"{end:.9f}", parent))


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s = max(s, reach)
        e = min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def children_of(spans: Sequence[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, (_name, _s, _e, parent) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids = children_of(spans)
    return [
        (e - s) - covered(((spans[c][1], spans[c][2]) for c in kids.get(i, ())), s, e)
        for i, (_name, s, e, _parent) in enumerate(spans)
    ]


def nesting_faults(spans: Sequence[Span], tolerance: float = 1e-9) -> list[str]:
    """Spans whose children's durations sum to more than their own, or that end before they start."""
    faults = []
    kids = children_of(spans)
    for i, (name, s, e, _parent) in enumerate(spans):
        child_sum = sum(spans[c][2] - spans[c][1] for c in kids.get(i, ()))
        if e < s:
            faults.append(f"span {i} ({name}) ends before it starts")
        elif child_sum > (e - s) + tolerance:
            faults.append(f"span {i} ({name}): children sum to {child_sum:.6f}s > {e - s:.6f}s")
    return faults


# -- crowdsim -----------------------------------------------------------------

#: Span names whose calls, inclusive seconds and self seconds are reported.
LAYERS = (
    "cli.main",
    "cli.compare_policies",
    "workload.load",
    "workload.validate",
    "simulate.run",
    "assign.engine_build",
    "assign.offline_assign",
    "assign.online_assign",
    "assign.baseline_nearest",
    "assign.grid_context",
    "assign.score_grid",
    "assign.score_at",
    "assign.refresh_trust",
    "assign.availability_mask",
)


def trace_crowdsim(tracer: Tracer) -> None:
    """Wrap the entry points of crowdsim's cli, workload, simulate and assign layers."""
    from crowdsim import assign, cli, simulate, workload

    counts = tracer.counts
    scored: dict[int, set[int]] = defaultdict(set)  # batch span -> task ids scored in it

    def after_online(_idx, _args, outcome) -> None:
        counts["online_assigned"] += outcome.kind is assign.OutcomeKind.ASSIGNED

    def after_offline(_idx, args, result) -> None:
        counts["batch_tasks"] += len(args[0])
        counts["batch_placed"] += len(result[0])

    def after_grid(idx, args, scores) -> None:
        total = scores.total
        counts["grid_cells"] += total.size
        counts["grid_positive"] += int((total > 0.0).sum())
        # A task scored twice within one batch is a candidate-table rebuild.
        seen = scored[tracer.spans[idx][3]]
        task_id = args[1].id
        counts["candidate_rebuilds"] += task_id in seen
        seen.add(task_id)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "compare_policies", "cli.compare_policies")
    tracer.wrap(cli, "load", "workload.load")
    tracer.wrap(cli, "run", "simulate.run")
    tracer.wrap(workload.Scenario, "validate", "workload.validate")
    tracer.wrap(simulate, "offline_assign", "assign.offline_assign", after_offline)
    tracer.wrap(simulate, "online_assign", "assign.online_assign", after_online)
    tracer.wrap(simulate, "baseline_nearest", "assign.baseline_nearest")
    tracer.wrap(assign.ScoreEngine, "__init__", "assign.engine_build")
    tracer.wrap(assign.ScoreEngine, "grid_context", "assign.grid_context")
    tracer.wrap(assign.ScoreEngine, "score_grid", "assign.score_grid", after_grid)
    tracer.wrap(assign.ScoreEngine, "score_at", "assign.score_at")
    tracer.wrap(assign.ScoreEngine, "refresh_trust", "assign.refresh_trust")
    tracer.wrap(assign, "_availability_mask", "assign.availability_mask")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer figures from a finished trace of crowdsim."""
    selfs = self_times(spans)
    kids = children_of(spans)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    decisions: list[float] = []
    batches: list[float] = []
    raise_retries = 0
    for i, (name, s, e, _parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += e - s
        excl[name] += selfs[i]
        if name in ("assign.online_assign", "assign.baseline_nearest"):
            decisions.append((e - s) * 1e3)
        if name == "assign.online_assign":
            # Each reward raise rescores the task once more.
            rescored = sum(spans[c][0] == "assign.score_at" for c in kids.get(i, ()))
            raise_retries += max(rescored - 1, 0)
        elif name == "assign.offline_assign":
            batches.append(e - s)

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = excl[name]
    out["cli.self_s"] = excl["cli.main"] + excl["cli.compare_policies"]
    out["workload.validate_s"] = incl["workload.validate"]
    out["assign.online_assign.assigned_frac"] = _ratio(counts["online_assigned"], calls["assign.online_assign"])
    out["assign.online_assign.raise_retries"] = raise_retries
    out["assign.decision_ms.p50"] = percentile(decisions, 50)
    out["assign.decision_ms.p99"] = percentile(decisions, 99)
    out["assign.offline_assign.tasks"] = counts["batch_tasks"]
    out["assign.offline_assign.placed_frac"] = _ratio(counts["batch_placed"], counts["batch_tasks"])
    out["assign.batch_plan_s.p50"] = percentile(batches, 50)
    out["assign.batch_plan_s.max"] = max(batches, default=0.0)
    out["assign.score_grid.cells"] = counts["grid_cells"]
    out["assign.score_grid.positive_frac"] = _ratio(counts["grid_positive"], counts["grid_cells"])
    out["assign.candidate_rebuilds"] = counts["candidate_rebuilds"]
    return out
