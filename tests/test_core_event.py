"""Unit tests for the Event container."""

from repro.core.event import Event
from repro.vt.time import EventKey


def make(ts=1.0, origin=0, seq=0, dst=1, kind="k"):
    return Event(EventKey(ts, origin, seq), dst, kind, {"x": 1})


def test_accessors():
    ev = make(ts=2.5, origin=3, seq=7)
    assert ev.ts == 2.5
    assert ev.origin == 3
    assert ev.key.seq == 7
    assert ev.dst == 1
    assert ev.kind == "k"
    assert ev.data == {"x": 1}


def test_default_data_is_fresh_dict():
    a = Event(EventKey(1.0, 0, 0), 0, "k")
    b = Event(EventKey(1.0, 0, 1), 0, "k")
    a.data["y"] = 1
    assert "y" not in b.data


def test_initial_flags():
    ev = make()
    assert not ev.processed
    assert not ev.cancelled
    assert not ev.in_pending
    assert ev.saved is None and ev.sent is None  # no journal until it runs
    assert ev.rng_draws == 0
    assert ev.snapshot is None


def test_repr_shows_flags():
    ev = make()
    assert "--" in repr(ev)
    ev.processed = True
    assert "P-" in repr(ev)
