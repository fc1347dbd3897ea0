"""Command-line interface: pipelines, CSV determinism, and exit codes."""

import csv
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from crowdsim.cli import main

EXAMPLE = "example1-flower-delivery"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- run ---------------------------------------------------------------------------


def test_run_writes_metrics_and_events(tmp_path):
    metrics = tmp_path / "metrics.csv"
    events = tmp_path / "events.csv"
    rc = main(
        [
            "run",
            "--scenario",
            EXAMPLE,
            "--policy",
            "psc",
            "--seed",
            "0",
            "--out",
            str(metrics),
            "--events",
            str(events),
        ]
    )
    assert rc == 0
    rows = _read_csv(metrics)
    assert len(rows) == 1
    row = rows[0]
    assert row["policy"] == "psc"
    assert row["tasks_submitted"] == "1"
    assert row["tasks_completed"] == "1"
    assert row["sim_minutes"] == "660"
    ev = _read_csv(events)
    kinds = [r["event_kind"] for r in ev]
    assert kinds[0] == "offline_batch"
    assert kinds[-1] == "completed"
    dispatch = next(r for r in ev if r["event_kind"] == "dispatch")
    assert dispatch["worker_id"] == "1"
    assert dispatch["score_total"] == "0.334775"
    # Optional fields are empty strings, never "None".
    submitted = next(r for r in ev if r["event_kind"] == "submitted")
    assert submitted["worker_id"] == ""
    assert submitted["score_total"] == ""


def test_run_metrics_to_stdout(capsys):
    rc = main(["run", "--scenario", EXAMPLE, "--policy", "sc-nearest"])
    assert rc == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("policy,seed,tasks_submitted")
    reader = csv.DictReader(io.StringIO(out))
    row = next(reader)
    assert row["policy"] == "sc-nearest"
    assert row["tasks_completed"] == "1"


def test_run_outputs_are_byte_identical_across_invocations(tmp_path):
    paths = []
    for label in ("first", "second"):
        m = tmp_path / f"m-{label}.csv"
        e = tmp_path / f"e-{label}.csv"
        rc = main(
            ["run", "--scenario", EXAMPLE, "--policy", "psc", "--seed", "3", "--out", str(m), "--events", str(e)]
        )
        assert rc == 0
        paths.append((m.read_bytes(), e.read_bytes()))
    assert paths[0] == paths[1]
    assert b"\r" not in paths[0][1]  # unix line endings regardless of platform


def test_run_horizon_and_batch_overrides(tmp_path):
    m = tmp_path / "m.csv"
    rc = main(
        [
            "run",
            "--scenario",
            EXAMPLE,
            "--horizon-min",
            "570",
            "--batch-times",
            "none",
            "--out",
            str(m),
        ]
    )
    assert rc == 0
    row = _read_csv(m)[0]
    assert row["sim_minutes"] == "570"
    # Cut off before the 579.654 completion: dispatched but never finished.
    assert row["tasks_completed"] == "0"
    assert row["tasks_accepted"] == "1"


# -- generate ----------------------------------------------------------------------


def test_generate_then_run_then_compare_pipeline(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    rc = main(
        [
            "generate",
            "--workers",
            "12",
            "--tasks",
            "30",
            "--horizon-min",
            "2880",
            "--seed",
            "5",
            "--out",
            str(scenario_path),
        ]
    )
    assert rc == 0
    doc = json.loads(scenario_path.read_text())
    assert len(doc["workers"]) == 12 and len(doc["tasks"]) == 30

    metrics = tmp_path / "metrics.csv"
    rc = main(["run", "--scenario", str(scenario_path), "--out", str(metrics), "--horizon-min", "2880"])
    assert rc == 0
    assert _read_csv(metrics)[0]["tasks_submitted"] == "30"

    cmp_path = tmp_path / "cmp.csv"
    rc = main(["compare", "--scenario", str(scenario_path), "--seeds", "0..3", "--out", str(cmp_path), "--horizon-min", "2880"])
    assert rc == 0
    rows = _read_csv(cmp_path)
    # 2 policies x 4 seeds + 2 mean rows.
    assert len(rows) == 10
    assert [r["seed"] for r in rows] == ["0", "1", "2", "3", "mean"] * 2
    assert {r["policy"] for r in rows} == {"psc", "sc-nearest"}
    mean_rows = [r for r in rows if r["seed"] == "mean"]
    assert len(mean_rows) == 2


def test_generate_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    argv = ["generate", "--workers", "5", "--tasks", "8", "--seed", "7", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["generate", "--workers", "5", "--tasks", "8", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


# -- compare -----------------------------------------------------------------------


def test_compare_single_seed_to_stdout(capsys):
    rc = main(["compare", "--scenario", EXAMPLE, "--seeds", "4"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4  # 2 policies x (1 seed + mean)
    psc = [r for r in rows if r["policy"] == "psc"]
    assert psc[0]["performance_def1"] == psc[1]["performance_def1"]  # mean of one run


def test_compare_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["compare", "--scenario", EXAMPLE, "--seeds", "0..2", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- pinned output bytes -----------------------------------------------------------

_OUTPUT_SHA256 = {
    "run-psc-metrics": "bf67de6a624b5a85d1eb0eb423ec01459e6af73654324c72da8b3937403cf92f",
    "run-psc-events": "913238d6df732320e70bc5053b2bcbf2eb5b436b622ba5faf15ec0e8bc95d7fa",
    "run-sc-nearest-metrics": "6cc5b350aff1a76b9123884d5cfefdc032f417f10cccf4914bf0121fbd8b40cf",
    "run-sc-nearest-events": "fa028b5e283a2f47e2352898b72d69105865d1b0608754e80682e316fefdcddf",
    "compare": "2c213ad28c07e3c479998e505f4e7d9e9630c5809e3a1e99a5c4b6062a1ae0d5",
}


def test_output_bytes_are_pinned(tmp_path):
    # A refactor of the simulator or the CSV writer must not move one byte.
    from crowdsim.workload import GenParams, generate, save

    scenario = tmp_path / "scenario.json"
    save(generate(GenParams(n_workers=30, n_tasks=80), seed=4), scenario)
    batches = ",".join(str(180 * k) for k in range(1, 57))  # every 3 h over the week
    out = {}
    for policy in ("psc", "sc-nearest"):
        m, e = tmp_path / f"{policy}-m.csv", tmp_path / f"{policy}-e.csv"
        argv = ["run", "--scenario", str(scenario), "--policy", policy, "--seed", "0"]
        assert main(argv + ["--batch-times", batches, "--out", str(m), "--events", str(e)]) == 0
        out[f"run-{policy}-metrics"], out[f"run-{policy}-events"] = m, e
    out["compare"] = tmp_path / "compare.csv"
    assert main(["compare", "--scenario", EXAMPLE, "--seeds", "0..2", "--out", str(out["compare"])]) == 0
    got = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in out.items()}
    assert got == _OUTPUT_SHA256


# -- score -------------------------------------------------------------------------


def test_score_prints_breakdown(capsys):
    rc = main(["score", "--scenario", EXAMPLE, "--task-id", "1", "--worker-id", "1", "--time", "540"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "time_score" in out
    assert "total             0.334775" in out


def test_score_unknown_ids_fail_cleanly(capsys):
    rc = main(["score", "--scenario", EXAMPLE, "--task-id", "99", "--worker-id", "1", "--time", "540"])
    assert rc == 2
    assert "no task with id 99" in capsys.readouterr().err


# -- exit codes ---------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2  # missing --scenario
    assert main(["run", "--scenario", EXAMPLE, "--policy", "bogus"]) == 2
    capsys.readouterr()  # swallow argparse noise


def test_unknown_scenario_exits_2(capsys):
    rc = main(["run", "--scenario", "no-such-thing"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no such scenario" in err
    assert EXAMPLE in err  # the message lists valid builtins


def _main_in_child(argv):
    """``main(argv)`` in a child process that is killed if it does not return."""
    import crowdsim

    env = dict(os.environ)
    src = str(pathlib.Path(crowdsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from crowdsim.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--horizon-min", "inf"),
        ("--horizon-min", "nan"),
        ("--grid-step-min", "nan"),
        ("--grid-step-min", "inf"),
        ("--batch-times", "nan"),
        ("--batch-times", "180,inf"),
        ("--batch-times", "180,-5"),
    ],
)
def test_non_finite_sim_flags_exit_2(flag, value):
    # An infinite horizon once laid out daily batch times without end, so the
    # command runs in a child process.
    out = _main_in_child(["run", "--scenario", EXAMPLE, flag, value])
    assert out.returncode == 2, out.stderr
    assert "must be finite" in out.stderr
    assert value.split(",")[-1] in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("flag, value", [("--horizon-min", "inf"), ("--map-km", "nan"), ("--map-km", "inf")])
def test_non_finite_generator_flags_exit_2(flag, value, tmp_path):
    # An infinite horizon once ended in an OverflowError, and a NaN map wrote
    # NaN coordinates.
    out_file = tmp_path / "g.json"
    out = _main_in_child(["generate", "--workers", "2", "--tasks", "2", flag, value, "--out", str(out_file)])
    assert out.returncode == 2, out.stderr
    assert "must be finite and > 0" in out.stderr
    assert not out_file.exists()


def test_invalid_scenario_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}', encoding="utf-8")
    rc = main(["run", "--scenario", str(bad)])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


def test_nan_reward_in_scenario_file_exits_2(tmp_path, capsys):
    from crowdsim.workload import builtin_scenarios, to_json_dict

    doc = json.dumps(to_json_dict(builtin_scenarios()[EXAMPLE]))
    bad = tmp_path / "nan.json"
    bad.write_text(doc.replace('"reward": 10.0', '"reward": NaN'), encoding="utf-8")
    # `score` only loads and scores, so a regression fails here instead of
    # hanging in the raise loop of a run.
    rc = main(["score", "--scenario", str(bad), "--task-id", "1", "--worker-id", "1", "--time", "540"])
    assert rc == 2
    assert "scenario.tasks[0].reward: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "{dir}"],
        ["run", "--scenario", EXAMPLE, "--out", "{dir}"],
        ["generate", "--workers", "2", "--tasks", "2", "--out", "{dir}"],
    ],
    ids=["run-scenario", "run-out", "generate-out"],
)
def test_directory_paths_exit_2(argv, tmp_path, capsys):
    rc = main([a.format(dir=tmp_path) for a in argv])
    assert rc == 2
    assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-inf", "nan", "inf"])
def test_score_non_finite_time_exits_2(value, capsys):
    rc = main(["score", "--scenario", EXAMPLE, "--task-id", "1", "--worker-id", "1", f"--time={value}"])
    assert rc == 2
    assert f"task 1: dispatch time must be finite, got {value}" in capsys.readouterr().err


def test_bad_generator_params_exit_2(tmp_path, capsys):
    rc = main(["generate", "--workers", "0", "--tasks", "5", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "n_workers" in capsys.readouterr().err


def test_internal_faults_exit_1(monkeypatch, capsys):
    import crowdsim.cli as cli_mod

    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "cmd_run", boom)
    parser_sees = ["run", "--scenario", EXAMPLE]
    # Re-register the patched handler by rebuilding the parser through main().
    monkeypatch.setattr(cli_mod, "build_parser", _patched_parser(cli_mod, boom))
    rc = cli_mod.main(parser_sees)
    assert rc == 1
    assert "internal error" in capsys.readouterr().err


def _patched_parser(cli_mod, handler):
    def build():
        parser = cli_mod.argparse.ArgumentParser(prog="crowdsim")
        sub = parser.add_subparsers(dest="command", required=True)
        r = sub.add_parser("run")
        r.add_argument("--scenario", required=True)
        r.set_defaults(func=handler)
        return parser

    return build


def _check_help(out):
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: crowdsim")
    for name in ("run", "generate", "compare", "score"):
        assert name in out.stdout, f"subcommand {name!r} missing from --help"


def test_console_script_is_installed():
    """The `crowdsim` script declared in pyproject.toml runs from a checkout.

    The declared `module:attr` is called the way pip's generated wrapper calls
    it, in a child that imports the same package this test imported, so the
    check needs no install and fails if the entry point or a subcommand is gone.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    import crowdsim

    pkg_parent = pathlib.Path(crowdsim.__file__).resolve().parents[1]
    with (pkg_parent.parent / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["crowdsim"]
    module, _, attr = target.partition(":")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pkg_parent), env.get("PYTHONPATH")]))
    wrapper = (
        "import sys, importlib; sys.argv[0] = 'crowdsim'; "
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())"
    )
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=env
    )
    _check_help(out)


@pytest.mark.skipif(
    shutil.which("crowdsim") is None,
    reason="crowdsim executable not on PATH (package not installed)",
)
def test_console_script_on_path_runs():
    out = subprocess.run([shutil.which("crowdsim"), "--help"], capture_output=True, text=True)
    _check_help(out)
