"""The engine's per-worker booking lists against the plain-Python overlap oracle.

Bookings are read through the queries the assigners make,
``_availability_mask`` and ``ScoreEngine.is_free``, and through
``instances.bookings_of``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import _overlaps
from instances import bookings_of, random_instance

from crowdsim.assign import ScoreEngine, _availability_mask

# Whole minutes make shared endpoints (touching intervals) common.
_time = st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0, allow_nan=False))
_length = st.one_of(st.just(0.0), st.integers(1, 20).map(float), st.floats(0.0, 20.0, allow_nan=False))


def _check_against_oracle(engine: ScoreEngine, held: dict[int, list], data) -> None:
    ids = [w.id for w in engine.workers]
    for wid in ids:
        assert bookings_of(engine, wid) == sorted(held[wid])

    # Online mask: one dispatch time, a work length per worker.
    t = data.draw(_time)
    ttc = np.array([data.draw(_length) for _ in ids])
    excluded = data.draw(st.sets(st.sampled_from(ids)))
    want = [wid not in excluded and not _overlaps((t, t + ttc[i]), held[wid]) for i, wid in enumerate(ids)]
    assert _availability_mask(engine, ttc, t, excluded).tolist() == want

    # Batch round: one interval per proposal, several proposals per worker.
    n = data.draw(st.integers(0, 8))
    rows = [data.draw(st.integers(0, len(ids) - 1)) for _ in range(n)]
    t0 = np.array([data.draw(_time) for _ in range(n)])
    t1 = t0 + np.array([data.draw(_length) for _ in range(n)])
    for k in range(n):
        assert (not engine.is_free(rows[k], t0[k], t1[k])) == _overlaps((t0[k], t1[k]), held[ids[rows[k]]])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_booking_table_matches_overlap_oracle(seed, data):
    # Bookings and releases come in any order; a booking changes only its
    # own worker's list, and every query, at any time, sees what is held.
    inst = random_instance(seed)
    engine = inst.engine()
    held = {w.id: list(w.bookings) for w in inst.workers}
    ids = sorted(held)
    _check_against_oracle(engine, held, data)
    for _ in range(data.draw(st.integers(0, 60))):
        holding = [wid for wid in ids if held[wid]]
        if holding and data.draw(st.integers(0, 2)) == 0:
            wid = data.draw(st.sampled_from(holding))
            start, end = data.draw(st.sampled_from(held[wid]))
            engine.release(wid, start, end)
            held[wid].remove((start, end))
        else:
            wid = data.draw(st.sampled_from(ids))
            start = data.draw(_time)
            end = start + data.draw(_length)
            before = {w: bookings_of(engine, w) for w in ids}
            engine.book(wid, start, end)
            held[wid].append((start, end))
            after = {w: bookings_of(engine, w) for w in ids}
            assert {w: b for w, b in after.items() if w != wid} == {w: b for w, b in before.items() if w != wid}
        assert bookings_of(engine, wid) == sorted(held[wid])
        t = data.draw(_time)
        got = [not engine.is_free(i, t, t + 1.0) for i in range(len(ids))]
        assert got == [_overlaps((t, t + 1.0), held[w]) for w in ids]
    _check_against_oracle(engine, held, data)


def test_a_worker_list_grows_and_keeps_every_booking():
    inst = random_instance(3)
    engine = inst.engine()
    wid = inst.workers[0].id
    want = sorted(inst.workers[0].bookings + [(1000.0 - 10 * k, 1005.0 - 10 * k) for k in range(40)])
    for k in range(40):
        engine.book(wid, 1000.0 - 10 * k, 1005.0 - 10 * k)
    assert bookings_of(engine, wid) == want


def test_release_of_an_unheld_booking_fails():
    inst = random_instance(3)
    engine = inst.engine()
    wid = inst.workers[0].id
    engine.book(wid, 10.0, 20.0)
    with pytest.raises(ValueError, match="holds no booking"):
        engine.release(wid, 10.0, 21.0)
    engine.release(wid, 10.0, 20.0)
    with pytest.raises(ValueError, match="holds no booking"):
        engine.release(wid, 10.0, 20.0)


def test_engine_does_not_touch_worker_bookings():
    inst = random_instance(5)
    before = [list(w.bookings) for w in inst.workers]
    engine = inst.engine()
    for w in inst.workers:
        engine.book(w.id, 500.0, 510.0)
    assert [w.bookings for w in inst.workers] == before
