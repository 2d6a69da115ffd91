"""Unit tests for the pending-event queue with lazy deletion of cancelled entries."""

import pytest

from repro.core.event import Event
from repro.core.config import EngineConfig
from repro.core.queue import PendingQueue, make_pending_queue
from repro.vt.time import EventKey


def ev(ts, origin=0, seq=0):
    return Event(EventKey(ts, origin, seq), 0, "k")


def test_pops_in_key_order():
    q = PendingQueue()
    events = [ev(3.0), ev(1.0, seq=1), ev(2.0, seq=2)]
    for e in events:
        q.push(e)
    assert [q.pop().ts for _ in range(3)] == [1.0, 2.0, 3.0]


def test_ties_break_by_origin_then_seq():
    q = PendingQueue()
    a, b = ev(1.0, origin=2, seq=0), ev(1.0, origin=1, seq=9)
    q.push(a)
    q.push(b)
    assert q.pop() is b
    assert q.pop() is a


def test_len_and_bool():
    q = PendingQueue()
    assert not q and len(q) == 0
    q.push(ev(1.0))
    assert q and len(q) == 1


def test_peek_does_not_remove():
    q = PendingQueue()
    e = ev(1.0)
    q.push(e)
    assert q.peek() is e
    assert len(q) == 1


def test_peek_key():
    q = PendingQueue()
    assert q.peek_key() is None
    q.push(ev(4.5))
    assert q.peek_key() == EventKey(4.5, 0, 0)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        PendingQueue().pop()


def test_cancelled_events_are_skipped():
    q = PendingQueue()
    a, b = ev(1.0), ev(2.0, seq=1)
    q.push(a)
    q.push(b)
    a.cancelled = True
    q.note_cancelled()
    assert len(q) == 1
    assert q.pop() is b
    assert not q


def test_extend_then_drain_round_trip():
    """``extend`` is many pushes with one heapify; ``drain`` empties the
    queue, returning only the live events."""
    q = PendingQueue()
    q.push(ev(5.0))
    events = [ev(float(ts), seq=ts) for ts in (3, 1, 4, 2)]
    q.extend(events)
    assert len(q) == 5 and all(e.in_pending for e in events)
    events[0].cancelled = True
    q.note_cancelled()
    assert [q.pop().ts for _ in range(2)] == [1.0, 2.0]
    drained = q.drain()
    assert sorted(e.ts for e in drained) == [4.0, 5.0]
    assert not q and len(q) == 0 and q.peek() is None
    assert not any(e.in_pending for e in drained + events)


def test_in_pending_flag_lifecycle():
    q = PendingQueue()
    e = ev(1.0)
    q.push(e)
    assert e.in_pending
    q.pop()
    assert not e.in_pending


def test_dead_entry_with_duplicate_key_does_not_break_heap():
    # A cancelled event's key can legitimately be reused by a re-send
    # after rollback; the heap must never compare Event objects.
    q = PendingQueue()
    old = ev(1.0)
    q.push(old)
    old.cancelled = True
    q.note_cancelled()
    new = ev(1.0)  # identical key
    q.push(new)
    assert q.pop() is new


def test_many_interleaved_operations_keep_order():
    q = PendingQueue()
    pushed = []
    for i in range(100):
        e = ev(float((i * 37) % 50), seq=i)
        pushed.append(e)
        q.push(e)
    for i, e in enumerate(pushed):
        if i % 3 == 0:
            e.cancelled = True
            q.note_cancelled()
    popped = []
    while q:
        popped.append(q.pop())
    assert len(popped) == len([e for e in pushed if not e.cancelled])
    assert popped == sorted(popped, key=lambda e: e.key)


def test_factory():
    # The one caller left is perfbench/probes.py's hold-model probe, which
    # a PR may not edit; this is the expression it evaluates.
    assert isinstance(
        make_pending_queue(EngineConfig(end_time=1.0).queue), PendingQueue
    )
    with pytest.raises(ValueError):
        make_pending_queue("ladder")
