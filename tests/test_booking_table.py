"""The engine's booking table against the plain-Python overlap oracle."""

from dataclasses import replace

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
_tick = st.sampled_from([0.0, 1.0, 5.0, 20.0])  # how far the clock moves before a booking


def _check_against_oracle(engine: ScoreEngine, held: dict[int, list], data, now: float = 0.0) -> None:
    # Every query starts at or after ``now``, the latest time given to book().
    ids = [w.id for w in engine.workers]
    for wid in ids:
        assert engine.bookings_of(wid) == sorted(held[wid])

    # Online mask: one dispatch time, a work length per worker.
    t = now + data.draw(_time)
    ttc = np.array([data.draw(_length) for _ in ids])
    excluded = data.draw(st.sets(st.sampled_from(ids)))
    want = [wid not in excluded and not _overlaps((t, t + ttc[i]), held[wid]) for i, wid in enumerate(ids)]
    assert _availability_mask(engine, ttc, t, excluded).tolist() == want

    # Batch round: one interval per proposal, several proposals per worker.
    n = data.draw(st.integers(0, 8))
    rows = np.array([data.draw(st.integers(0, len(ids) - 1)) for _ in range(n)], dtype=np.intp)
    t0 = now + np.array([data.draw(_time) for _ in range(n)])
    t1 = t0 + np.array([data.draw(_length) for _ in range(n)])
    want = [_overlaps((t0[k], t1[k]), held[ids[rows[k]]]) for k in range(n)]
    assert engine.booked(t0, t1, rows).tolist() == want


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_booking_table_matches_overlap_oracle(seed, data):
    # The clock only moves forward. Bookings may end before it, so a full
    # column retires its own ended bookings while the other columns keep
    # theirs; a release may name a retired booking, and bookings_of still
    # lists every booking held.
    inst = random_instance(seed)
    engine = inst.engine()
    held = {w.id: list(w.bookings) for w in inst.workers}
    ids = sorted(held)
    now = 0.0
    _check_against_oracle(engine, held, data, now)
    for _ in range(data.draw(st.integers(0, 60))):
        holding = [wid for wid in ids if held[wid]]
        if holding and data.draw(st.integers(0, 2)) == 0:
            wid = data.draw(st.sampled_from(holding))
            start, end = data.draw(st.sampled_from(held[wid]))
            engine.release(wid, start, end)
            held[wid].remove((start, end))
        else:
            now += data.draw(_tick)
            wid = data.draw(st.sampled_from(ids))
            start = now - 20.0 + data.draw(_time)
            end = start + data.draw(_length)
            before = booking_columns(engine)
            engine.book(wid, start, end, now)
            held[wid].append((start, end))
            after = booking_columns(engine)
            i = engine.index_of[wid]
            assert after[:i] + after[i + 1 :] == before[:i] + before[i + 1 :]
        assert engine.bookings_of(wid) == sorted(held[wid])
        # The minute from now: a booking retired too early shows here.
        assert engine.booked(now, now + 1.0).tolist() == [_overlaps((now, now + 1.0), held[w]) for w in ids]
    _check_against_oracle(engine, held, data, now)


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


def test_table_shrinks_after_compaction_and_grows_again():
    inst = random_instance(3)
    engine = ScoreEngine([replace(w, bookings=[]) for w in inst.workers], [], [], inst.velocity)
    wid = inst.workers[0].id
    for k in range(8):  # eight bookings live at once: 1 -> 2 -> 4 -> 8 rows
        engine.book(wid, 10.0 * k, 100.0, 10.0 * k)
    assert len(engine._bk_start) == 8
    # At 200 all eight have ended: the full column retires them and the
    # table shrinks to one row for the new booking.
    engine.book(wid, 200.0, 300.0, 200.0)
    assert len(engine._bk_start) == 1
    assert engine._retired[0] and engine._bk_count[0] == 1
    for k in range(4):  # five live again: 1 -> 2 -> 4 -> 8 rows
        engine.book(wid, 210.0 + k, 300.0, 210.0 + k)
    assert len(engine._bk_start) == 8
    want = [(10.0 * k, 100.0) for k in range(8)] + [(200.0, 300.0)] + [(210.0 + k, 300.0) for k in range(4)]
    assert engine.bookings_of(wid) == sorted(want)
    assert engine.booked(250.0, 251.0).tolist() == [True] + [False] * (len(inst.workers) - 1)
    engine.release(wid, 30.0, 100.0)  # a retired booking
    engine.release(wid, 212.0, 300.0)  # a live one
    want.remove((30.0, 100.0))
    want.remove((212.0, 300.0))
    assert engine.bookings_of(wid) == sorted(want)


def test_filling_a_column_retires_only_its_own_ended_bookings():
    inst = random_instance(5)
    engine = ScoreEngine([replace(w, bookings=[]) for w in inst.workers], [], [], inst.velocity)
    ids = [w.id for w in engine.workers]
    for k, wid in enumerate(ids):  # one booking per column, every one over by 100
        engine.book(wid, 10.0 * k, 10.0 * k + 5.0, 10.0 * k)
    before = booking_columns(engine)
    engine.book(ids[1], 100.0, 130.0, 100.0)
    after = booking_columns(engine)
    assert after[1] == [(100.0, 130.0)] and engine._retired[1] == [(10.0, 15.0)]
    assert after[:1] + after[2:] == before[:1] + before[2:]
    assert [len(r) for r in engine._retired] == [0, 1, 0, 0]
    assert len(engine._bk_start) == 1
    assert engine.booked(100.0, 101.0).tolist() == [False, True, False, False]
    assert [engine.bookings_of(wid) for wid in ids] == [before[0], [(10.0, 15.0), (100.0, 130.0)], *before[2:]]
