"""Command-line front end: generate scenarios, run simulations, compare policies.

Exit codes: 0 on success, 2 for usage or input-validation problems and for
paths that cannot be read or written, 1 for internal faults.  All file
output (scenario JSON, CSV) is byte-deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .assign import TimeGrid
from .model import centroid
from .simulate import POLICIES, SimConfig, SimReport, run
from .workload import (
    GenParams,
    ParameterError,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    builtin_scenarios,
    generate,
    load,
    save,
)

EVENT_COLUMNS = ("time_min", "event_kind", "task_id", "worker_id", "score_total", "reward")
METRIC_COLUMNS = (
    "policy",
    "seed",
    "tasks_submitted",
    "tasks_assigned",
    "tasks_accepted",
    "tasks_completed",
    "sim_minutes",
    "performance_def1",
    "completion_fraction",
    "mean_travel_km",
)
COMPARE_COLUMNS = ("policy", "seed", "performance_def1", "completion_fraction", "mean_travel_km")

#: Default daily batch start: 03:00, repeated every 24 h.
DEFAULT_BATCH_OFFSET_MIN = 180.0
DAY_MIN = 1440.0


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _write_csv(path_or_none: str | None, columns: Sequence[str], rows: Iterable[dict]) -> None:
    """Write rows to the path, or stdout when no path is given."""
    out = open(path_or_none, "w", newline="") if path_or_none else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row.get(c)) for c in columns])
    finally:
        if path_or_none:
            out.close()


def _resolve_scenario(ref: str) -> Scenario:
    builtins = builtin_scenarios()
    if ref in builtins:
        return builtins[ref]
    path = Path(ref)
    if not path.exists():
        known = ", ".join(sorted(builtins))
        raise ScenarioFormatError(f"no such scenario file or builtin: {ref!r} (builtins: {known})")
    return load(path)


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _default_batch_times(duration_min: float) -> tuple[float, ...]:
    times = []
    t = DEFAULT_BATCH_OFFSET_MIN
    while t <= duration_min:
        times.append(t)
        t += DAY_MIN
    return tuple(times)


def _build_config(args, scenario: Scenario, policy: str, seed: int) -> SimConfig:
    if args.horizon_min is not None:
        duration = float(args.horizon_min)
    elif scenario.tasks:
        duration = float(max(t.expiration for t in scenario.tasks))
    else:
        duration = DAY_MIN
    # The config checks the horizon before the batch times are laid out up to it.
    config = SimConfig(duration_min=duration, seed=seed, policy=policy)
    grid = TimeGrid(step_min=float(args.grid_step_min), horizon_min=duration)
    if args.batch_times is None:
        batch_times = _default_batch_times(duration)
    elif args.batch_times.strip().lower() in ("", "none"):
        batch_times = ()
    else:
        batch_times = tuple(float(x) for x in args.batch_times.split(","))
    return replace(config, offline_batch_times=batch_times, grid=grid)


def _metrics_row(report: SimReport, policy: str, seed: int) -> dict:
    return {
        "policy": policy,
        "seed": seed,
        "tasks_submitted": report.counts["submitted"],
        "tasks_assigned": report.counts["assigned"],
        "tasks_accepted": report.counts["accepted"],
        "tasks_completed": report.counts["completed"],
        "sim_minutes": report.sim_minutes,
        "performance_def1": report.performance_def1,
        "completion_fraction": report.completion_fraction,
        "mean_travel_km": report.mean_travel_km,
    }


def compare_policies(scenario: Scenario, base: SimConfig, seeds: Sequence[int]) -> list[dict]:
    """Run every policy over the seed list; append one mean row per policy."""
    rows: list[dict] = []
    for policy in POLICIES:
        policy_rows = []
        for seed in seeds:
            report = run(scenario, replace(base, policy=policy, seed=seed))
            policy_rows.append(_metrics_row(report, policy, seed))
        rows.extend(policy_rows)
        metrics = COMPARE_COLUMNS[2:]  # the columns after policy and seed
        means = {c: float(np.mean([r[c] for r in policy_rows])) for c in metrics}
        rows.append({"policy": policy, "seed": "mean", **means})
    return rows


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    params = GenParams(
        n_workers=args.workers,
        n_tasks=args.tasks,
        n_categories=args.categories,
        map_size_km=args.map_km,
        fraction_commuters=args.commuters,
        status_levels=tuple(float(x) for x in args.status_levels.split(",")),
        urgent_fraction=args.urgent,
        horizon_min=args.horizon_min if args.horizon_min is not None else 10080.0,
    )
    scenario = generate(params, seed=args.seed)
    save(scenario, args.out)
    print(f"wrote scenario with {args.workers} workers, {args.tasks} tasks to {args.out}")
    return 0


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    config = _build_config(args, scenario, args.policy, args.seed)
    report = run(scenario, config)
    if args.events:
        _write_csv(args.events, EVENT_COLUMNS, map(vars, report.log))  # LogRow's fields are EVENT_COLUMNS
    _write_csv(args.out, METRIC_COLUMNS, [_metrics_row(report, args.policy, args.seed)])
    return 0


def cmd_compare(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds)
    config = _build_config(args, scenario, POLICIES[0], seeds[0])
    rows = compare_policies(scenario, config, seeds)
    _write_csv(args.out, COMPARE_COLUMNS, rows)
    return 0


def cmd_score(args) -> int:
    from .scoring import total_score

    scenario = _resolve_scenario(args.scenario)
    tasks = {t.id: t for t in scenario.tasks}
    workers = {w.id: w for w in scenario.workers}
    if args.task_id not in tasks:
        raise ValueError(f"no task with id {args.task_id}")
    if args.worker_id not in workers:
        raise ValueError(f"no worker with id {args.worker_id}")
    task = tasks[args.task_id]
    worker = workers[args.worker_id]
    owner = next(o for o in scenario.owners if o.id == task.owner_id)
    category = next(c for c in scenario.categories if c.id == task.category_id)
    b = total_score(task, worker, owner, category, args.time, scenario.velocity)
    c = centroid(worker.pattern.value_at(args.time))
    print(f"task {task.id} -> worker {worker.id} at t={_fmt(args.time)}")
    print(f"worker expected at ({_fmt(c.x)}, {_fmt(c.y)})")
    print(f"time_score        {_fmt(b.time_score)}")
    print(f"availability      {_fmt(b.availability)}")
    print(f"reward            {_fmt(b.reward)}")
    print(f"trust_weighted    {_fmt(b.trust_weighted)}")
    print(f"total             {_fmt(b.total)}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-step-min", type=float, default=15.0, help="batch dispatch grid step (minutes)")
    p.add_argument(
        "--horizon-min",
        type=float,
        default=None,
        help="simulated minutes (default: latest task expiration)",
    )
    p.add_argument(
        "--batch-times",
        default=None,
        help="comma-separated batch minutes, or 'none' (default: daily at 03:00)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdsim",
        description="Availability-aware task assignment simulator for mobile workforces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random scenario file")
    g.add_argument("--workers", type=int, required=True)
    g.add_argument("--tasks", type=int, required=True)
    g.add_argument("--categories", type=int, default=3)
    g.add_argument("--map-km", type=float, default=10.0)
    g.add_argument("--commuters", type=float, default=0.6, help="fraction of workers with a workplace")
    g.add_argument("--urgent", type=float, default=0.1, help="fraction of tasks with short deadlines")
    g.add_argument("--status-levels", default="0.1,0.5,0.9", help="low,mid,high acceptance levels")
    g.add_argument("--horizon-min", type=float, default=None, help="submit-time horizon (minutes)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="simulate one policy on a scenario")
    r.add_argument("--scenario", required=True, help="scenario file or builtin name")
    r.add_argument("--policy", choices=POLICIES, default="psc")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None, help="metrics CSV path (default: stdout)")
    r.add_argument("--events", default=None, help="event log CSV path")
    _add_sim_flags(r)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="run all policies over a seed range")
    c.add_argument("--scenario", required=True)
    c.add_argument("--seeds", default="0..9", help="single seed or inclusive range A..B")
    c.add_argument("--out", default=None, help="comparison CSV path (default: stdout)")
    _add_sim_flags(c)
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("score", help="print one task/worker score breakdown")
    s.add_argument("--scenario", required=True)
    s.add_argument("--task-id", type=int, required=True)
    s.add_argument("--worker-id", type=int, required=True)
    s.add_argument("--time", type=float, required=True, help="dispatch time (minutes)")
    s.set_defaults(func=cmd_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ScenarioFormatError, ScenarioValidationError, ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is an internal fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
