"""The engine's booking table against the plain-Python overlap oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import _overlaps
from instances import booking_columns, random_instance

from crowdsim.assign import ScoreEngine, _availability_mask

# Whole minutes make shared endpoints (touching intervals) common.
_time = st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0, allow_nan=False))
_length = st.one_of(st.just(0.0), st.integers(1, 20).map(float), st.floats(0.0, 20.0, allow_nan=False))


def _check_against_oracle(engine: ScoreEngine, held: dict[int, list], data) -> None:
    ids = [w.id for w in engine.workers]
    for wid in ids:
        assert engine.bookings_of(wid) == sorted(held[wid])

    # Online mask: one dispatch time, a work length per worker.
    t = data.draw(_time)
    ttc = np.array([data.draw(_length) for _ in ids])
    excluded = data.draw(st.sets(st.sampled_from(ids)))
    want = [wid not in excluded and not _overlaps((t, t + ttc[i]), held[wid]) for i, wid in enumerate(ids)]
    assert _availability_mask(engine, ttc, t, excluded).tolist() == want

    # Batch round: one interval per proposal, several proposals per worker.
    n = data.draw(st.integers(0, 8))
    rows = np.array([data.draw(st.integers(0, len(ids) - 1)) for _ in range(n)], dtype=np.intp)
    t0 = np.array([data.draw(_time) for _ in range(n)])
    t1 = t0 + np.array([data.draw(_length) for _ in range(n)])
    want = [_overlaps((t0[k], t1[k]), held[ids[rows[k]]]) for k in range(n)]
    assert engine.booked(t0, t1, rows).tolist() == want


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_booking_table_matches_overlap_oracle(seed, data):
    # Bookings and releases come in any order; a booking changes only its
    # own worker's column, and every query, at any time, sees what is held.
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
            before = booking_columns(engine)
            engine.book(wid, start, end)
            held[wid].append((start, end))
            after = booking_columns(engine)
            i = engine.index_of[wid]
            assert after[:i] + after[i + 1 :] == before[:i] + before[i + 1 :]
        assert engine.bookings_of(wid) == sorted(held[wid])
        t = data.draw(_time)
        assert engine.booked(t, t + 1.0).tolist() == [_overlaps((t, t + 1.0), held[w]) for w in ids]
    _check_against_oracle(engine, held, data)


def test_table_widens_and_keeps_every_booking():
    inst = random_instance(3)
    engine = inst.engine()
    wid = inst.workers[0].id
    want = sorted(inst.workers[0].bookings + [(1000.0 - 10 * k, 1005.0 - 10 * k) for k in range(40)])
    for k in range(40):
        engine.book(wid, 1000.0 - 10 * k, 1005.0 - 10 * k)
    assert engine.bookings_of(wid) == want


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
