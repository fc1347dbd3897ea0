"""Run one benchmark workload against crowdsim and print its figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every step runs in a fresh child process (perfbench/worker.py), so each
timed command's peak resident memory is its own. With ``--trace 0`` the
command is repeated while another repetition, at the pace so far, still ends
within S seconds; the end-to-end metrics in BENCHMARK.json are medians over
the repetitions.
With ``--trace 1`` the command runs once untraced and once traced, and the
per-layer metrics come from the traced run. Human-readable lines come first;
the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic

from stats import median
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SPEC = ROOT / "BENCHMARK.json"
OUT_ROOT = ROOT / ".perfbench"
#: Every run must end within 180 s; children are stopped at this many.
RUN_LIMIT_S = 170.0
#: Seconds spent repeating the scenario set-up (three times at least); setup_s is the median.
SETUP_SECONDS = 3.0


class StepFailed(RuntimeError):
    pass


def step(args: list[str], deadline: float) -> dict:
    """Run one worker step in a fresh process and return its JSON result."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise StepFailed(f"no time left for {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{args[0]} stopped after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise StepFailed(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def timed_metrics(reps: list[dict], setups: list[dict]) -> dict[str, float]:
    return {
        "wall_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "setup_s": median([s["setup_s"] for s in setups]),
    }


def traced_metrics(plain: dict, traced: dict, setups: list[dict]) -> dict[str, float]:
    out = dict(traced["layers"])
    for part in ("generate_s", "save_s", "load_s"):
        out[f"workload.{part}"] = median([s[part] for s in setups])
    sim = traced["sim"]
    out["simulate.events"] = sim["events"]
    out["simulate.dispatches"] = sim["dispatch"]
    out["simulate.rejections"] = sim["rejected"]
    out["simulate.offer_waste_frac"] = sim["rejected"] / sim["dispatch"] if sim["dispatch"] else 0.0
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["trace.overhead_frac"] = out["trace.overhead_s"] / plain["wall_s"]
    return out


def measure(args, workdir: Path, deadline: float) -> tuple[list[dict], dict[str, float]]:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(workdir)]
    setup = step(["setup", *common, "--seconds", str(SETUP_SECONDS)], deadline)
    print(f"numpy {setup['numpy']}")
    for problem in setup["problems"]:
        print(f"setup FAILED: {problem}")
    setups = setup["samples"]

    if args.trace:
        plain = step(["op", *common], deadline)
        traced = step(["op", *common, "--trace"], deadline)
        if traced["digest"] != plain["digest"]:
            traced["problems"].append("tracing changed the outputs")
        print(f"spans {traced['spans']} written to {workdir / 'spans.csv'}")
        reps, values = [plain, traced], traced_metrics(plain, traced, setups)
    else:
        reps = []
        start = monotonic()
        # Another repetition only when, at the pace so far, it ends within S seconds.
        while not reps or (monotonic() - start) * (len(reps) + 1) / len(reps) <= args.seconds:
            reps.append(step(["op", *common], deadline))
        values = timed_metrics(reps, setups)
    # Wrong set-up or canary outputs make every repetition's outputs suspect.
    for r in reps:
        r["problems"] += setup["problems"]
    return reps, values


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run stops and reaps the running step.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    deadline = monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "crowdsim" / "__init__.py").is_file():
        print(f"error: no crowdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"environment {json.dumps(environment(args.seed))}")
    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        reps, values = measure(args, workdir, deadline)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in workdir.iterdir():
            if child.name != "spans.csv":
                shutil.rmtree(child) if child.is_dir() else child.unlink()
        if not any(workdir.iterdir()):
            workdir.rmdir()

    failed = 0
    for i, r in enumerate(reps):
        checked = "checked against its pin" if r["digest_checked"] else "not pinned for this seed"
        print(f"rep {i}: wall {r['wall_s']:.3f} s, {r['runs']} simulation runs, digest {r['digest']} {checked}")
        for problem in r["problems"]:
            print(f"rep {i} FAILED: {problem}")
        failed += bool(r["problems"])
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac {failed / len(reps):.6g} frac")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
