"""Unit tests for the in-process message transport."""

from repro.core.event import Event
from repro.core.transport import ImmediateTransport
from repro.vt.time import EventKey, TIME_HORIZON


def test_immediate_delivers_synchronously():
    got = []
    tr = ImmediateTransport(got.append)
    e = Event(EventKey(1.0, 0, 0), 0, "k")
    tr.deliver(e, 0, 1)
    assert got == [e]
    assert tr.in_flight_count() == 0
    assert tr.min_in_flight_ts() == TIME_HORIZON
    assert tr.flush() == 0
