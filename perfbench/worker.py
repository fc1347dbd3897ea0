"""One benchmark step in a fresh process; prints one JSON object as its last line.

    python3 perfbench/worker.py setup --workload NAME --seed N --seconds S --dir DIR
    python3 perfbench/worker.py op --workload NAME --seed N --dir DIR [--trace]

``setup`` generates the workload's scenario, saves it to DIR/scenario.json
and loads it back, at least three times and for at least S seconds, then
runs and checks the canary. ``op`` runs the workload's crowdsim command once on DIR/scenario.json,
reports its wall time, CPU time and peak resident memory, and checks its
outputs. With ``--trace`` it records spans around each layer and reports
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crowdsim  # noqa: E402

from checks import RunChecker, digest, load_pins, pinned_digest  # noqa: E402
from spans import Tracer, layer_metrics, nesting_faults, trace_crowdsim  # noqa: E402
from workloads import CANARY_COMMANDS, CANARY_GEN, CANARY_OUTPUTS, CANARY_SEED, WORKLOADS, fill  # noqa: E402


def setup(workload, seed: int, seconds: float, d: Path) -> dict:
    import numpy as np
    from crowdsim import GenParams, generate, load, save

    params = GenParams(**workload.gen)
    path = d / "scenario.json"
    samples = []
    saved = set()  # digests of every save
    start = perf_counter()
    while len(samples) < 3 or perf_counter() - start < seconds:
        t0 = perf_counter()
        scenario = generate(params, seed)
        t1 = perf_counter()
        save(scenario, path)
        t2 = perf_counter()
        load(path)
        t3 = perf_counter()
        samples.append({"generate_s": t1 - t0, "save_s": t2 - t1, "load_s": t3 - t2, "setup_s": t3 - t0})
        saved.add(digest([path]))
    problems = [] if len(saved) == 1 else ["the same seed saved different scenario bytes"]
    save(load(path), d / "resaved.json")
    if digest([d / "resaved.json"]) not in saved:
        problems.append("a loaded scenario saves to different bytes")
    problems += canary(d)
    return {"samples": samples, "problems": problems, "numpy": np.__version__}


def canary(d: Path) -> list[str]:
    """Run the fixed canary scenario under both policies and check its pinned digest."""
    from crowdsim import GenParams, cli, generate, save

    checker = RunChecker()
    checker.install()
    scenario, out = d / "canary.json", d / "canary-out"
    out.mkdir(exist_ok=True)
    save(generate(GenParams(**CANARY_GEN), CANARY_SEED), scenario)
    problems = []
    for command in CANARY_COMMANDS:
        rc = cli.main(fill(command, str(scenario), str(out)))
        if rc != 0:
            problems.append(f"canary run exited with {rc}")
    problems += checker.problems
    actual, expected = digest(out / f for f in CANARY_OUTPUTS), pinned_digest(load_pins(), "canary")
    if actual != expected:
        problems.append(f"digest {actual} != pinned {expected}")
    return [f"canary: {p}" for p in problems]


def op(workload, seed: int, d: Path, trace: bool) -> dict:
    from crowdsim import cli

    tracer = Tracer() if trace else None
    checker = RunChecker(on_spent=tracer.exclude if tracer else None)
    checker.install()
    if tracer:
        trace_crowdsim(tracer)
    out = d / ("out-traced" if trace else "out")
    out.mkdir(exist_ok=True)

    w0, c0 = perf_counter(), process_time()
    rc = cli.main(fill(workload.command, str(d / "scenario.json"), str(out)))
    wall = perf_counter() - w0 - checker.wall_s
    cpu = process_time() - c0 - checker.cpu_s
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    problems = [] if rc == 0 else [f"crowdsim {workload.command[0]} exited with {rc}"]
    problems += checker.problems
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb, "runs": checker.runs}
    result["sim"] = {k: checker.counts[k] for k in ("events", "dispatch", "rejected")}
    if tracer:
        tracer.restore()
        spans = tracer.spans
        problems += nesting_faults(spans)[:5]
        result["layers"] = layer_metrics(spans, tracer.counts)
        result["spans"] = len(spans)
        tracer.write(d / "spans.csv")

    result["digest"] = digest(out / f for f in workload.outputs)
    expected = pinned_digest(load_pins(), workload.name, seed)
    result["digest_checked"] = expected is not None
    if expected is not None and expected != result["digest"]:
        problems.append(f"output digest {result['digest']} != pinned {expected}")

    result["problems"] = problems
    return result


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("step", choices=("setup", "op"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    if Path(crowdsim.__file__).resolve().parent != (ROOT / "src" / "crowdsim").resolve():
        sys.exit(f"crowdsim was imported from {crowdsim.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    if args.step == "setup":
        result = setup(workload, args.seed, args.seconds, args.dir)
    else:
        result = op(workload, args.seed, args.dir, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
