"""The benchmark's workloads: one generated scenario and one crowdsim command line each.

Every workload is a closed loop with a single caller: one ``crowdsim``
command runs in one process, and the next starts only after it returns.
The benchmark seed picks the generated scenario; the simulator seeds on the
command line stay fixed, so the program only ever sees the scenario.
This module imports nothing from crowdsim, so the parent process stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

WEEK_MIN = 10080


def batch_times(first: int, every: int) -> str:
    """``--batch-times`` value: ``first``, ``first + every``, ... up to one week."""
    return ",".join(str(t) for t in range(first, WEEK_MIN + 1, every))


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict  # GenParams keyword arguments
    command: tuple[str, ...]  # crowdsim arguments; {scenario} and {out} are filled in
    outputs: tuple[str, ...]  # files the command writes under {out}, digested in this order


_WEEK_POPULATION = {"n_workers": 1000, "n_tasks": 5000, "horizon_min": float(WEEK_MIN)}


def _week_run(policy: str) -> tuple[str, ...]:
    return (
        "run", "--scenario", "{scenario}", "--policy", policy, "--seed", "0",
        "--horizon-min", str(WEEK_MIN), "--batch-times", batch_times(180, 180),
        "--out", "{out}/metrics.csv", "--events", "{out}/events.csv",
    )  # fmt: skip


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The criterion-8 population with a 3-hour batch cadence: the batch
        # assigner does most of the work.
        Workload(
            "week-psc-3h",
            _WEEK_POPULATION,
            _week_run("psc"),
            ("metrics.csv", "events.csv"),
        ),
        # Purely online: the booking mask and score_at dominate, and the batch
        # assigner never runs, so batch-layer changes must leave it unchanged.
        Workload(
            "week-nearest",
            _WEEK_POPULATION,
            _week_run("sc-nearest"),
            ("metrics.csv", "events.csv"),
        ),
        # The criterion-7 population over 20 seeds and both policies: per-call
        # and per-run fixed costs dominate, so a change with a large constant
        # cost loses here first.
        Workload(
            "compare-small",
            {"n_workers": 200, "n_tasks": 500, "horizon_min": float(WEEK_MIN), "urgent_fraction": 0.5},
            (
                "compare", "--scenario", "{scenario}", "--seeds", "0..19",
                "--horizon-min", str(WEEK_MIN), "--batch-times", batch_times(180, 360),
                "--out", "{out}/compare.csv",
            ),  # fmt: skip
            ("compare.csv",),
        ),
    )
}

#: A fixed 200x500 scenario run once under each policy after every timed
#: command. Its pinned digest checks the program's outputs whatever the
#: benchmark seed.
CANARY_GEN = WORKLOADS["compare-small"].gen
CANARY_SEED = 0
CANARY_COMMANDS = tuple(
    (
        "run", "--scenario", "{scenario}", "--policy", policy, "--seed", "0",
        "--horizon-min", str(WEEK_MIN), "--batch-times", batch_times(180, 360),
        "--out", f"{{out}}/{tag}-metrics.csv", "--events", f"{{out}}/{tag}-events.csv",
    )  # fmt: skip
    for policy, tag in (("psc", "psc"), ("sc-nearest", "nearest"))
)
CANARY_OUTPUTS = ("psc-metrics.csv", "psc-events.csv", "nearest-metrics.csv", "nearest-events.csv")


def fill(command: tuple[str, ...], scenario: str, out: str) -> list[str]:
    return [a.replace("{scenario}", scenario).replace("{out}", out) for a in command]
