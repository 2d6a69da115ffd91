"""Regression tests for pending-queue lazy-deletion accounting.

The heap stores ``(ts, origin, seq, serial, event)`` tuples built at push
time, with the process-wide ``Event.serial`` breaking ties between a dead
entry and a live event that legitimately reuses the same key.  These
tests pin down the bookkeeping that layout must keep exact:
``_live`` (the queue's O(1) length), the ``in_pending`` flag, and the
cancel-then-repush-with-reused-key scenario produced by rollback re-sends
and by the event pool recycling a cancelled event's key.
"""

import pytest

from repro.core.event import Event, EventPool
from repro.core.queue import PendingQueue
from repro.vt.time import EventKey


def ev(ts, origin=0, seq=0):
    return Event(EventKey(ts, origin, seq), 0, "k")


#: The pending-queue structures under test (one); the ids name it.
QUEUES = [PendingQueue]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_cancel_then_repush_reused_key_pops_fresh_event(queue_cls):
    # A rollback re-send creates a *new* event with the *same* key as the
    # cancelled original still buried in the structure.  The fresh entry's
    # serial is strictly larger, so the dead entry is discarded first and
    # the live one surfaces exactly once.
    q = queue_cls()
    old = ev(1.0)
    q.push(old)
    old.cancelled = True
    q.note_cancelled()
    new = ev(1.0)  # same EventKey, later serial
    q.push(new)
    assert len(q) == 1
    got = q.pop()
    assert got is new
    assert not q
    assert not old.in_pending and not new.in_pending


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_pooled_recycle_of_cancelled_key_stays_distinct(queue_cls):
    # The event pool renews a recycled event with a fresh serial, so
    # even an event object whose key matches a dead entry's is ordered
    # after it and never compared to it as an Event.
    pool = EventPool()
    q = queue_cls()
    old = pool.acquire(EventKey(2.0, 0, 0), 0, "k")
    q.push(old)
    old.cancelled = True
    q.note_cancelled()
    assert len(q) == 0
    recycled = pool.acquire(EventKey(2.0, 0, 0), 0, "k")  # key reuse
    assert recycled is not old
    q.push(recycled)
    assert len(q) == 1
    assert q.pop() is recycled


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_live_count_is_exact_under_churn(queue_cls):
    # _live must equal the number of live (non-cancelled) queued events
    # after every operation, even while dead entries linger internally.
    q = queue_cls()
    events = [ev(float((7 * i) % 13), seq=i) for i in range(60)]
    live = set()
    for e in events:
        q.push(e)
        live.add(e)
        assert len(q) == len(live)
    for i, e in enumerate(events):
        if i % 4 == 0:
            e.cancelled = True
            q.note_cancelled()
            live.discard(e)
            assert len(q) == len(live)
    while q:
        e = q.pop()
        live.discard(e)
        assert not e.cancelled
        assert len(q) == len(live)
    assert not live


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_pop_below_keeps_live_count_and_flags_consistent(queue_cls):
    q = queue_cls()
    early, late = ev(1.0), ev(9.0, seq=1)
    q.push(early)
    q.push(late)
    # Limit below the minimum: nothing is popped, nothing is unaccounted.
    assert q.pop_below(1.0) is None
    assert len(q) == 2 and early.in_pending and late.in_pending
    got = q.pop_below(5.0)
    assert got is early and not early.in_pending
    assert len(q) == 1
    assert q.pop_below(5.0) is None
    assert len(q) == 1 and late.in_pending


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_pop_below_sweeps_dead_entries_and_clears_in_pending(queue_cls):
    q = queue_cls()
    dead, live = ev(1.0), ev(2.0, seq=1)
    q.push(dead)
    q.push(live)
    dead.cancelled = True
    q.note_cancelled()
    # The dead minimum is swept during the fused peek+pop, its in_pending
    # flag dropped, and the live event below the limit is returned.
    assert q.pop_below(10.0) is live
    assert not dead.in_pending
    assert not live.in_pending
    assert len(q) == 0


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_rollback_requeue_same_object_single_live_entry(queue_cls):
    # undo_event re-pushes the same Event object (same entry tuple).  The
    # structure must treat it as one live entry per push, popping it once.
    q = queue_cls()
    e = ev(3.0)
    q.push(e)
    assert q.pop() is e
    q.push(e)  # requeued after rollback
    assert e.in_pending and len(q) == 1
    assert q.pop() is e
    assert not q
