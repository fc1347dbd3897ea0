"""Output checks applied to every timed crowdsim command.

Each simulation report must keep the funnel (submitted >= assigned >=
accepted >= completed) and leave every submitted task in exactly one
terminal state. The CSV files the command writes must hash to the digest
pinned for the workload and seed, where one is pinned.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Iterable

TERMINAL_EVENTS = frozenset({"completed", "expired", "unassignable"})
PINS_FILE = Path(__file__).with_name("digests.json")


def report_problems(report) -> list[str]:
    """Funnel and terminal-state faults in one ``crowdsim.SimReport``."""
    problems = []
    c = report.counts
    if not c["submitted"] >= c["assigned"] >= c["accepted"] >= c["completed"]:
        problems.append(f"funnel broken: {c}")
    if c["completed"] + c["expired"] + c["unassignable"] != c["submitted"]:
        problems.append(f"terminal counts do not add up to submitted: {c}")
    submitted = [r.task_id for r in report.log if r.event_kind == "submitted"]
    terminal = Counter(r.task_id for r in report.log if r.event_kind in TERMINAL_EVENTS)
    if len(submitted) != c["submitted"] or len(set(submitted)) != len(submitted):
        problems.append(f"{len(submitted)} submit events for {c['submitted']} submitted tasks")
    not_one = sorted(tid for tid in set(submitted) | set(terminal) if terminal[tid] != 1)
    if not_one:
        problems.append(f"{len(not_one)} tasks without exactly one terminal event, first {not_one[:5]}")
    live = sorted(tid for tid, state in report.task_state.items() if state.value not in TERMINAL_EVENTS)
    if live:
        problems.append(f"{len(live)} tasks left in a live state, first {live[:5]}")
    return problems


class RunChecker:
    """Wraps ``crowdsim.cli.run`` to check each report and count its simulated events.

    The time spent checking is kept in ``wall_s``/``cpu_s`` so the caller can
    take it off its own timings, and passed to ``on_spent`` when given.
    """

    def __init__(self, on_spent: Callable[[float], None] | None = None) -> None:
        self.on_spent = on_spent
        self.runs = 0
        self.problems: list[str] = []
        self.counts: Counter[str] = Counter()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def install(self) -> None:
        from crowdsim import cli

        inner = cli.run

        def checked_run(scenario, config):
            report = inner(scenario, config)
            w0, c0 = perf_counter(), process_time()
            self.runs += 1
            self.problems += [f"{config.policy} seed {config.seed}: {p}" for p in report_problems(report)]
            self.counts.update(r.event_kind for r in report.log)
            self.counts["events"] += len(report.log)
            spent = perf_counter() - w0
            self.wall_s += spent
            self.cpu_s += process_time() - c0
            if self.on_spent is not None:
                self.on_spent(spent)
            return report

        cli.run = checked_run


def digest(paths: Iterable[Path]) -> str:
    """SHA-256 over the files' bytes, each prefixed by its length."""
    h = hashlib.sha256()
    for p in paths:
        data = Path(p).read_bytes()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def pinned_digest(pins: dict, workload: str, seed: int | None = None) -> str | None:
    """The digest pinned for ``workload`` (and ``seed``, for seeded workloads), if any."""
    entry = pins.get(workload)
    if seed is None or entry is None:
        return entry
    return entry.get(str(seed))


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())
