"""Scenario JSON round-trips, strict schema errors, and the generator."""

import copy
import gc
import hashlib
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdsim import workload
from crowdsim.model import Disc, Point, Rect, Task, TaskCategory, TaskOwner, TrustCounters, Worker
from crowdsim.schedule import Segment, WeeklySchedule
from crowdsim.scoring import VelocityProfile
from crowdsim.workload import (
    GenParams,
    ParameterError,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    builtin_scenarios,
    from_json_dict,
    generate,
    load,
    save,
    to_json_dict,
)

EXAMPLE = "example1-flower-delivery"


def _doc():
    return to_json_dict(builtin_scenarios()[EXAMPLE])


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_builtin_scenarios_validate_and_round_trip(name):
    sc = builtin_scenarios()[name]
    sc.validate()
    doc = to_json_dict(sc)
    again = from_json_dict(doc)
    assert to_json_dict(again) == doc


def test_generated_scenario_round_trips_exactly():
    sc = generate(GenParams(n_workers=30, n_tasks=80), seed=4)
    sc.validate()
    doc = to_json_dict(sc)
    assert to_json_dict(from_json_dict(doc)) == doc


def test_save_then_load_is_identity(tmp_path):
    sc = generate(GenParams(n_workers=12, n_tasks=25), seed=1)
    p = tmp_path / "scenario.json"
    save(sc, p)
    loaded = load(p)
    assert to_json_dict(loaded) == to_json_dict(sc)


def test_save_is_byte_stable(tmp_path):
    sc = generate(GenParams(n_workers=12, n_tasks=25), seed=1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(sc, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


_SAVED_SHA256 = {
    "example1-flower-delivery": "ac6eef270a4c542d2b577abab85a45a0f56d8b87175ad646a143a82252a152b2",
    "example2-high-entropy": "eb933755b110c351d0864e69d3f9313692b81c6846289b6fb4adf751d87f4a80",
    "generated-30x80-seed4": "209a6f48a48c75f76760f9c73bf0ab3007a74fc730246c30d6739b0140a4c54d",
}


@pytest.mark.parametrize("name", sorted(_SAVED_SHA256))
def test_saved_bytes_are_pinned(name, tmp_path):
    # A round trip alone would not notice an encoder that changes every file
    # the same way (say, writing 540.0 for 540); the pins do.
    sc = builtin_scenarios().get(name) or generate(GenParams(n_workers=30, n_tasks=80), seed=4)
    p = tmp_path / "scenario.json"
    save(sc, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == _SAVED_SHA256[name]


def _json_oracle(sc) -> bytes:
    return (json.dumps(to_json_dict(sc), indent=2, sort_keys=True) + "\n").encode()


def test_save_writes_the_indented_sorted_layout(tmp_path):
    # Twelve categories, so the id maps hold "10" before "2", as sort_keys orders them.
    sc = generate(GenParams(n_workers=5, n_tasks=20, n_categories=12), seed=3)
    p = tmp_path / "scenario.json"
    save(sc, p)
    assert p.read_bytes() == _json_oracle(sc)
    demand = p.read_text().split('"reward_demand": {', 1)[1]
    assert demand.index('"10":') < demand.index('"2":')


# Values a scenario built in Python may hold: every float, including NaN,
# the infinities, -0.0 and reprs with an exponent; minutes near 2**53; and
# text with control characters and characters beyond ASCII.
_ANY_FLOAT = st.floats() | st.sampled_from([-0.0, 1e16, 1.5e-300, 5e-324, 1e22, -2.5e-7])
_MINUTE = st.integers(0, 10_000) | st.integers(2**53 - 4, 2**53 + 4)
_TEXT = st.text(max_size=8) | st.sampled_from(["\x00\x1f\x7f", "é\u2028😀", '"\\/'])


@st.composite
def _schedule(draw, value):
    """A schedule whose segments cover disjoint days, so it constructs."""
    segments = []
    for days in (range(0, 4), range(4, 7)):
        if draw(st.booleans()):
            start = draw(st.integers(0, 1439))
            end = draw(st.integers(start + 1, 1440))
            segments.append(Segment(draw(st.frozensets(st.sampled_from(days), min_size=1)), start, end, draw(value)))
    return WeeklySchedule(tuple(segments), draw(value))


_RECTS = st.builds(lambda x, y, w, h: Rect(x, y, x + abs(w), y + abs(h)), *[st.floats(-1e6, 1e6)] * 4)
_REGIONS = (
    st.builds(Point, _ANY_FLOAT, _ANY_FLOAT)
    | st.builds(lambda x, y, r: Disc(x, y, abs(r)), _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
    | _RECTS
)


@st.composite
def _scenarios(draw):
    category_ids = range(1, draw(st.integers(1, 12)) + 1)
    minutes = _MINUTE.map(float)

    def id_map(values):
        return st.none() | st.dictionaries(st.sampled_from(category_ids), values)

    trust = st.builds(TrustCounters, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), _ANY_FLOAT)
    workers = st.builds(
        Worker,
        st.integers(-5, 10**6),
        _schedule(_REGIONS),
        _schedule(_ANY_FLOAT),
        id_map(_ANY_FLOAT),
        id_map(trust),
        st.none() | st.lists(st.tuples(minutes, minutes), max_size=3),
    )
    tasks = st.builds(
        Task,
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(category_ids),
        _TEXT,
        _REGIONS,
        minutes,
        minutes,
        _ANY_FLOAT,
        _ANY_FLOAT,
        minutes,
        st.none() | minutes,
        st.none() | minutes,
    )
    return Scenario(
        extent=draw(_RECTS),
        velocity=VelocityProfile(draw(_schedule(_ANY_FLOAT)), draw(st.floats(0.1, 1e9) | st.just(math.inf))),
        categories=[TaskCategory(i, draw(_TEXT), draw(_ANY_FLOAT), draw(_ANY_FLOAT)) for i in category_ids],
        owners=draw(st.lists(st.builds(TaskOwner, st.integers(0, 99), _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT), max_size=2)),
        workers=draw(st.lists(workers, max_size=3)),
        tasks=draw(st.lists(tasks, max_size=3)),
    )


@settings(max_examples=100, deadline=None)
@given(_scenarios())
def test_save_bytes_match_the_json_oracle(tmp_path_factory, sc):
    # The scenarios are not validated: save writes whatever the records hold.
    p = tmp_path_factory.getbasetemp() / "oracle.json"
    save(sc, p)
    assert p.read_bytes() == _json_oracle(sc)


@pytest.mark.parametrize(
    "content", [b"{not json", b"[" * 100_000, b'{"units": "\xff"}'], ids=["syntax", "deep-nesting", "not-utf8"]
)
def test_load_reports_bad_json(tmp_path, content):
    # Deep nesting once escaped as a RecursionError, and bytes that are not
    # UTF-8 as a UnicodeDecodeError that named no path.
    p = tmp_path / "broken.json"
    p.write_bytes(content)
    with pytest.raises(ScenarioFormatError, match=re.escape(f"{p}: invalid JSON")):
        load(p)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_generate_and_load_pause_cyclic_gc_and_restore_the_callers_state(enabled, tmp_path, monkeypatch):
    # Records are built with cyclic GC off, and the caller's state comes
    # back after a load, a generate and a load that fails; a collector the
    # caller had disabled stays disabled.
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save(generate(GenParams(5, 10), seed=1), good)
    doc = json.loads(good.read_text())
    del doc["units"]
    bad.write_text(json.dumps(doc))
    during = []
    validate, velocity = Scenario.validate, workload._default_velocity
    monkeypatch.setattr(Scenario, "validate", lambda self: during.append(gc.isenabled()) or validate(self))
    monkeypatch.setattr(workload, "_default_velocity", lambda: during.append(gc.isenabled()) or velocity())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load(good)
        after = [gc.isenabled()]
        with pytest.raises(ScenarioFormatError, match="missing field 'units'"):
            load(bad)
        after.append(gc.isenabled())
        generate(GenParams(5, 10), seed=2)
        after.append(gc.isenabled())
    finally:
        (gc.enable if was else gc.disable)()
    assert after == [enabled] * 3
    assert during == [False, False]


# -- strict schema ----------------------------------------------------------------


def _expect_error(mutate, needle: str):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ScenarioFormatError) as err:
        from_json_dict(doc)
    assert needle in str(err.value), str(err.value)


def test_missing_top_level_field_is_located():
    _expect_error(lambda d: d.pop("units"), "scenario: missing field 'units'")


def test_missing_task_field_is_located():
    _expect_error(lambda d: d["tasks"][0].pop("reward"), "scenario.tasks[0]: missing field 'reward'")


def test_unknown_field_is_rejected_with_location():
    _expect_error(lambda d: d["workers"][0].__setitem__("surprise", 1), "scenario.workers[0]: unknown field 'surprise'")


def test_unsupported_schema_version():
    _expect_error(lambda d: d.__setitem__("schema_version", 2), "unsupported version 2")


def test_unknown_region_shape_is_located():
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("region", {"blob": []}),
        "scenario.tasks[0].region: unknown field 'blob'",
    )


def test_region_arity_checked():
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("region", {"rect": [0, 1, 2]}),
        "expected 4 numbers, got 3",
    )


def test_region_constructor_error_is_located():
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("region", {"rect": [5, 0, 1, 1]}),
        "scenario.tasks[0].region.rect: rect needs min <= max on both axes",
    )


def test_speed_floor_below_the_minimum_is_located():
    _expect_error(
        lambda d: d["velocity_profile"].__setitem__("floor_kmh", 1e-310),
        "scenario.velocity_profile: floor_kmh must be >= 0.1, got 1e-310",
    )


def test_places_beyond_the_coordinate_limit_are_rejected():
    doc = _doc()
    doc["tasks"][0]["region"] = {"point": [1e308, 1e308]}
    doc["workers"][1]["pattern"]["default"] = {"disc": [0.0, -2e6, 1.0]}
    with pytest.raises(ScenarioValidationError) as err:
        from_json_dict(doc)
    assert [str(v) for v in err.value.violations] == [
        "worker 2: place (0.0, -2000000.0) has a coordinate beyond 1e+06 km",
        "task 1: place (1e+308, 1e+308) has a coordinate beyond 1e+06 km",
    ]


def test_fractional_minutes_rejected():
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("submit_min", 540.5),
        "scenario.tasks[0].submit_min: times must be integer minutes, got 540.5",
    )
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("duration_min", 30.25),
        "times must be integer minutes",
    )


def test_bool_is_not_a_number():
    _expect_error(lambda d: d["tasks"][0].__setitem__("reward", True), "expected a number")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_located(value):
    _expect_error(
        lambda d: d["tasks"][0].__setitem__("reward", value),
        "scenario.tasks[0].reward: expected a finite number",
    )
    _expect_error(
        lambda d: d["categories"][0].__setitem__("cat_reward", value),
        "scenario.categories[0].cat_reward: expected a finite number",
    )
    _expect_error(
        lambda d: d["velocity_profile"].__setitem__("floor_kmh", value),
        "scenario.velocity_profile.floor_kmh: expected a finite number",
    )


def test_integers_too_large_for_a_float_are_located():
    _expect_error(lambda d: d["tasks"][0].__setitem__("reward", 10**400), "expected a finite number")
    _expect_error(lambda d: d["tasks"][0].__setitem__("duration_min", 10**400), "expected a finite number")


def test_nan_in_a_scenario_file_is_rejected(tmp_path):
    # json reads the non-standard NaN literal; the loader must not.
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(_doc()).replace('"reward": 10.0', '"reward": NaN'), encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=r"scenario\.tasks\[0\]\.reward: expected a finite number"):
        load(p)


def test_wrong_container_types_located():
    _expect_error(lambda d: d.__setitem__("workers", {}), "scenario.workers: expected an array")
    _expect_error(lambda d: d.__setitem__("velocity_profile", 3), "scenario.velocity_profile: expected an object")


def test_segment_day_out_of_range():
    doc = _doc()
    doc["workers"][0]["status"]["segments"] = [{"days": [7], "start_min": 0, "end_min": 60, "value": 1.0}]
    want = "scenario.workers[0].status.segments[0]: day indices must be in 0..6"
    with pytest.raises(ScenarioFormatError, match=re.escape(want)):
        from_json_dict(doc)


_ID_MAPS = {"reward_demand", "trust"}
_OPTIONAL_KEYS = {"segments", "reward_demand", "trust", "bookings", "start_earliest_min", "start_latest_min"}
_SHAPES = {"point", "rect", "disc"}


def _rich_doc():
    """A valid document that uses every part of the schema at least once."""
    def segments(value):
        return [{"days": [0, 4], "start_min": 420, "end_min": 540, "value": value}]

    doc = _doc()
    doc["velocity_profile"]["schedule"]["segments"] = segments(15.0)
    worker = doc["workers"][0]
    worker["pattern"]["segments"] = segments({"rect": [1.0, 1.0, 2.0, 2.0]})
    worker["status"]["segments"] = segments(0.5)
    worker["bookings"] = [[600, 630]]
    task = doc["tasks"][0]
    task["region"] = {"disc": [5.0, 5.0, 0.5]}
    task["start_earliest_min"], task["start_latest_min"] = 560, 600
    return doc


def _walk(node, path=(), where="scenario", in_map=False):
    """Yield (path, location, parent location, in an id map) for every key and element."""
    for key, child in enumerate(node) if isinstance(node, list) else node.items():
        loc = f"{where}[{key}]" if in_map or isinstance(node, list) else f"{where}.{key}"
        yield path + (key,), loc, where, in_map
        if isinstance(child, (dict, list)):
            yield from _walk(child, path + (key,), loc, key in _ID_MAPS)


def _mutated(path, *value):
    """A fresh rich document with the entry at ``path`` set to ``value``, or deleted."""
    doc = _rich_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value:
        node[path[-1]] = value[0]
    else:
        del node[path[-1]]
    return doc


def test_every_fault_is_located_once():
    """A null anywhere is rejected with its location named once, as the prefix.
    True, "x", 1.5, [] or {} anywhere is either accepted or rejected the same
    way (an empty day list is refused by its segment).  Deleting a key is
    accepted only for optional keys and id-map entries; any other deletion is
    reported as a missing field of the parent."""
    from_json_dict(_rich_doc())
    faults = []
    for path, loc, parent, in_map in _walk(_rich_doc()):
        try:
            from_json_dict(_mutated(path, None))
            faults.append(f"{loc} = null was accepted")
        except ScenarioFormatError as exc:
            msg = str(exc)
            if not msg.startswith(f"{loc}: ") or msg.count(loc) != 1:
                faults.append(f"{loc} = null: {msg}")
        for value in (True, "x", 1.5, [], {}):
            try:
                from_json_dict(_mutated(path, value))
            except ScenarioValidationError:
                pass  # well formed, but the entities disagree
            except ScenarioFormatError as exc:
                msg = str(exc)
                if value == [] and path[-1] == "days" and msg == f"{parent}: segment needs at least one day":
                    continue  # well typed, but the segment itself refuses it
                if not msg.startswith(f"{loc}: ") or msg.count(loc) != 1:
                    faults.append(f"{loc} = {value!r}: {msg}")
        key = path[-1]
        if isinstance(key, int):
            continue
        if key in _OPTIONAL_KEYS or in_map:
            from_json_dict(_mutated(path))
            continue
        want = "region must have exactly one of 'point', 'rect', 'disc'" if key in _SHAPES else f"missing field '{key}'"
        try:
            from_json_dict(_mutated(path))
            faults.append(f"deleting {loc} was accepted")
        except ScenarioFormatError as exc:
            if str(exc) != f"{parent}: {want}":
                faults.append(f"deleting {loc}: {exc}")
    assert not faults, "\n".join(faults)


def test_semantic_violations_are_collected():
    doc = _doc()
    doc["workers"][0]["trust"]["1"] = {"assigned": 1, "accepted": 2, "completed": 0, "initial_score": 0.5}
    doc["tasks"][0]["owner_id"] = 99
    with pytest.raises(ScenarioValidationError) as err:
        from_json_dict(doc)
    msg = str(err.value)
    assert "completed <= accepted <= assigned" in msg
    assert "99" in msg


def test_validation_error_lists_every_problem():
    doc = _doc()
    doc["tasks"][0]["owner_id"] = 99
    doc["tasks"][0]["category_id"] = 42
    with pytest.raises(ScenarioValidationError) as err:
        from_json_dict(doc)
    assert "99" in str(err.value) and "42" in str(err.value)


def test_json_ids_in_demand_maps_are_string_keyed():
    doc = _doc()
    assert set(doc["workers"][0]["reward_demand"]) == {"1"}
    sc = from_json_dict(doc)
    assert sc.workers[0].reward_demand == {1: 5.0}


@pytest.mark.parametrize("key", ["01", " 1 ", "+1", "1_0", "x"])
def test_id_map_keys_must_be_canonical(key):
    # int() reads each of these keys, so "01" could overwrite "1" unseen.
    def mutate(d):
        d["workers"][0]["reward_demand"] = {"1": 5.0, key: 9.0}

    _expect_error(mutate, f"scenario.workers[0].reward_demand: key {key!r} is not an integer id")


# -- generator --------------------------------------------------------------------


def test_generate_is_deterministic():
    a = generate(GenParams(n_workers=40, n_tasks=100), seed=9)
    b = generate(GenParams(n_workers=40, n_tasks=100), seed=9)
    assert to_json_dict(a) == to_json_dict(b)
    c = generate(GenParams(n_workers=40, n_tasks=100), seed=10)
    assert to_json_dict(c) != to_json_dict(a)


@pytest.mark.parametrize("n,f,want", [(100, 0.6, 60), (100, 0.29, 29), (7, 0.5, 3), (10, 1.0, 10), (10, 0.0, 0)])
def test_commuter_count_is_floored(n, f, want):
    assert math.floor(n * f + 1e-9) == want  # the documented rule
    sc = generate(GenParams(n_workers=n, n_tasks=0, fraction_commuters=f), seed=0)
    commuters = [w for w in sc.workers if w.pattern.segments]
    assert len(commuters) == want
    # Commuters are at their workplace during weekday working hours.
    for w in commuters:
        monday_ten = 10 * 60.0
        assert w.pattern.value_at(monday_ten) != w.pattern.default


def test_generated_population_shape():
    params = GenParams(n_workers=50, n_tasks=120, n_categories=4, n_owners=6, horizon_min=2880.0)
    sc = generate(params, seed=2)
    assert len(sc.workers) == 50
    assert len(sc.tasks) == 120
    assert [c.id for c in sc.categories] == [1, 2, 3, 4]
    assert [o.id for o in sc.owners] == [1, 2, 3, 4, 5, 6]
    assert sc.extent == Rect(0.0, 0.0, 10.0, 10.0)
    for t in sc.tasks:
        assert 0.0 <= t.submit_time < 2880.0
        assert t.expiration > t.submit_time + t.duration
        assert float(t.submit_time).is_integer() and float(t.duration).is_integer()
    for w in sc.workers:
        assert set(w.reward_demand) == {1, 2, 3, 4}
        home = w.pattern.default
        assert isinstance(home, Point) and 0.0 <= home.x <= 10.0


def test_generated_status_levels_only_use_configured_values():
    params = GenParams(n_workers=20, n_tasks=0, status_levels=(0.1, 0.5, 0.9))
    sc = generate(params, seed=3)
    seen = set()
    for w in sc.workers:
        seen.add(w.status.default)
        for seg in w.status.segments:
            seen.add(seg.value)
    assert seen <= {0.1, 0.5, 0.9}
    assert len(seen) == 3


def test_urgent_fraction_tightens_deadlines():
    params = GenParams(n_workers=5, n_tasks=200, urgent_fraction=0.5, horizon_min=20160.0)
    sc = generate(params, seed=6)
    leads = [t.expiration - t.submit_time for t in sc.tasks]
    urgent, relaxed = leads[:100], leads[100:]
    assert max(urgent) <= 240.0 + 90.0  # urgent lead cap, allowing the duration floor
    assert sum(relaxed) / len(relaxed) > sum(urgent) / len(urgent)


def test_gen_params_validation():
    with pytest.raises(ParameterError):
        GenParams(n_workers=0, n_tasks=1)
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=-1)
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, fraction_commuters=1.5)
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, status_levels=())
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, status_levels=(0.5, 1.2))
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, reward_range=(5.0, 2.0))
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, duration_range=(0, 10))
    with pytest.raises(ParameterError):
        GenParams(n_workers=1, n_tasks=1, horizon_min=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon_min", 0.5),
        ("horizon_min", 1e17),
        ("lead_range", (10**16, 10**16)),
        ("urgent_lead_range", (1, 2**53)),
        ("duration_range", (2**53, 2**53)),
        ("duration_range", (10.0, 90.0)),
        ("map_size_km", 5e6),
        ("reward_range", (0.001, 0.002)),
        ("demand_range", (0.004, 0.005)),
        ("reward_range", (5.0, math.inf)),
        ("demand_range", (2.0, math.nan)),
        ("reward_range", (5, 10**400)),
        ("n_workers", 1.5),
        ("n_workers", 2.0),
        ("n_tasks", 1.5),
        ("n_tasks", True),
        ("n_categories", 3.0),
        ("n_categories", "3"),
        ("n_owners", False),
        ("n_owners", 8.0),
    ],
)
def test_gen_params_reject_what_generate_cannot_honour(field, value):
    # Each of these once built a scenario with violations, one that saved
    # but did not load, or a bare error from inside generate.
    with pytest.raises(ParameterError, match=field):
        GenParams(**{"n_workers": 1, "n_tasks": 1, field: value})


def test_gen_params_horizon_limit_is_the_latest_expiration():
    # A task is submitted by the horizon's last whole minute and expires at
    # most the longest lead (1440 minutes by default) later, so the latest
    # expiration is 2**53 - 1 at the largest horizon accepted.
    GenParams(n_workers=1, n_tasks=1, horizon_min=2.0**53 - 1440)
    with pytest.raises(ParameterError, match="horizon_min"):
        GenParams(n_workers=1, n_tasks=1, horizon_min=2.0**53 - 1439)


_MONEY = st.one_of(st.sampled_from([0.005, 0.0051, 0.01, 5.0, 1e300, 2.0**1023]), st.floats(0.004, 50.0))
_MINUTES = st.one_of(st.sampled_from([1, 2, 1439, 1440, 1441, 2**40, 2**52]), st.integers(1, 3000))


def _ranges(values: st.SearchStrategy, n: int) -> st.SearchStrategy:
    """``n`` (lo, hi) ranges of ``values``, each in order."""
    return st.tuples(*[st.tuples(values, values).map(sorted).map(tuple)] * n)


@settings(max_examples=150, deadline=None)
@given(
    counts=st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(1, 3), st.integers(1, 3)),
    map_size_km=st.one_of(st.sampled_from([5e-324, 0.001, 1e6]), st.floats(1e-3, 1e6)),
    fractions=st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    status_levels=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    money=_ranges(_MONEY, 2),
    minutes=_ranges(_MINUTES, 3),
    horizon_min=st.one_of(st.sampled_from([1.0, 1.5, 1439.0, 1440.0, 2.0**52, 2.0**53 - 2000]), st.floats(1.0, 3e4)),
    seed=st.integers(0, 2**32),
)
def test_every_gen_params_that_constructs_generates_a_valid_scenario(
    counts, map_size_km, fractions, status_levels, money, minutes, horizon_min, seed
):
    # Small counts and boundary values: whatever GenParams accepts, generate
    # draws a scenario that validates and saves, and loading it back saves
    # the same bytes.
    try:
        params = GenParams(
            *counts,
            map_size_km=map_size_km,
            fraction_commuters=fractions[0],
            urgent_fraction=fractions[1],
            status_levels=tuple(status_levels),
            reward_range=money[0],
            demand_range=money[1],
            horizon_min=horizon_min,
            duration_range=minutes[0],
            lead_range=minutes[1],
            urgent_lead_range=minutes[2],
        )
    except ParameterError:
        return
    scenario = generate(params, seed)
    assert scenario.violations() == []
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save(scenario, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["n_categories", "n_owners"])
def test_gen_params_need_a_category_and_an_owner(name):
    with pytest.raises(ParameterError, match=f"{name} must be >= 1, got 0"):
        GenParams(n_workers=1, n_tasks=1, **{name: 0})


def test_saving_a_place_that_is_not_a_region_fails():
    sc = builtin_scenarios()[EXAMPLE]
    worker = replace(sc.workers[0], pattern=WeeklySchedule((), default="home"))
    with pytest.raises(TypeError, match="not a region: 'home'"):
        to_json_dict(replace(sc, workers=[worker]))


@pytest.mark.parametrize("name", ["map_size_km", "horizon_min"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gen_params_rejects_non_finite(name, bad):
    with pytest.raises(ParameterError, match=f"{name} must be finite and > 0"):
        GenParams(n_workers=1, n_tasks=1, **{name: bad})


def test_generated_scenario_is_json_serializable(tmp_path):
    sc = generate(GenParams(n_workers=8, n_tasks=20), seed=0)
    p = tmp_path / "gen.json"
    save(sc, p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    assert doc["schema_version"] == 1
    assert len(doc["workers"]) == 8


def test_scenario_units_guard():
    sc = generate(GenParams(n_workers=2, n_tasks=2), seed=0)
    bad = copy.replace(sc, units="miles") if hasattr(copy, "replace") else None
    if bad is None:  # Python < 3.13: rebuild by hand
        from dataclasses import replace

        bad = replace(sc, units="miles")
    with pytest.raises(ScenarioValidationError):
        bad.validate()
