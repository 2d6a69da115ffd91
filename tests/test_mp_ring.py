"""Unit tests for the shared-memory SPSC ring and the mp codecs.

The ring tests run single-process (both sides of the ring driven from
the test), which exercises exactly the byte-level machinery — cursor
arithmetic, wrap-around, full-stall refusal, and the lost-cursor-store
resilience (see the ``repro.mp.ring`` module docstring) — without the
scheduling nondeterminism of real workers; one case forks a child to
show the anonymous mapping is shared across ``fork``.  Cross-process
runs are covered by ``tests/test_mp_determinism.py``.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event import Event
from repro.errors import ConfigurationError
from repro.mp.codec import ANTI, POSITIONAL, POSITIVE, EventCodec
from repro.mp.gvt import TOKEN, WaveCodec
from repro.mp.ring import _DATA_OFF, _TAIL_OFF, SpscRing
from repro.vt.time import EventKey, TIME_HORIZON


@pytest.fixture
def ring():
    r = SpscRing(size=_DATA_OFF + 256)
    yield r
    r.close()


def test_ring_fifo_roundtrip(ring):
    frames = [bytes([i]) * (i + 1) for i in range(10)]
    for f in frames:
        assert ring.try_write(f)
    got = []
    while True:
        f = ring.try_read()
        if f is None:
            break
        got.append(f)
    assert got == frames
    assert ring.messages_written == 10
    assert ring.messages_read == 10
    assert ring.bytes_written == sum(len(f) for f in frames)
    assert ring.bytes_read == ring.bytes_written
    assert len(ring) == 0


def test_ring_wraparound_many_times(ring):
    """Frames of varying size pushed through a tiny ring for thousands
    of wraps: every frame must come back verbatim, in order."""
    import random

    rng = random.Random(0xB5EED)
    outstanding = []
    sent = received = 0
    while received < 5000:
        if outstanding and (len(outstanding) > 3 or rng.random() < 0.5):
            frame = ring.try_read()
            assert frame == outstanding.pop(0)
            received += 1
        else:
            frame = rng.randbytes(rng.randint(1, 60))
            if ring.try_write(frame):
                outstanding.append(frame)
                sent += 1
    assert ring.tail > ring.capacity  # really wrapped
    assert sent >= received


def test_ring_full_stall_and_recovery(ring):
    frame = b"x" * 60  # 64 bytes with the length prefix
    writes = 0
    while ring.try_write(frame):
        writes += 1
    assert writes == ring.capacity // 64
    assert ring.full_stalls == 1
    assert ring.try_read() == frame
    assert ring.try_write(frame)  # freed space is reusable immediately
    assert ring.full_stalls == 1


def test_ring_oversized_frame_refused(ring):
    with pytest.raises(ConfigurationError):
        ring.try_write(b"y" * (ring.capacity + 1))


def test_ring_empty_reads_none(ring):
    assert ring.try_read() is None
    ring.try_write(b"a")
    assert ring.try_read() == b"a"
    assert ring.try_read() is None


def test_ring_survives_reverted_tail_store(ring):
    """The production failure mode: the shared tail cursor spontaneously
    reverts to a stale value (observed as a lost store on a virtualized
    kernel).  The consumer must see "empty", never garbage, and the
    producer's republish heartbeat must make the frames visible again.
    """
    for i in range(4):
        assert ring.try_write(bytes([i]) * 8)
    assert ring.try_read() == bytes(8)
    # Simulate the lost store: shared tail reverts to its initial value.
    struct.pack_into("<Q", ring._buf, _TAIL_OFF, 0)
    assert ring.try_read() is None  # stale tail < head == empty, not IndexError
    assert len(ring) == 0  # clamped, never negative
    ring.republish_tail()  # the producer's heartbeat heals it
    assert ring.try_read() == bytes([1]) * 8
    assert ring.try_read() == bytes([2]) * 8
    # And the producer itself never trusts the shared copy: writes keep
    # appending after the true tail even while the shared one is stale.
    struct.pack_into("<Q", ring._buf, _TAIL_OFF, 0)
    assert ring.try_write(b"zzzz")
    assert ring.try_read() == bytes([3]) * 8
    assert ring.try_read() == b"zzzz"


def test_ring_survives_reverted_head_store(ring):
    """Twin scenario: the shared head reverts, so the producer
    under-estimates free space (full-stalls — safe) until the consumer's
    republish heartbeat restores it."""
    frame = b"x" * 60
    while ring.try_write(frame):
        pass
    for _ in range(ring.capacity // 64):
        assert ring.try_read() == frame
    # Revert the shared head: ring looks full again to the producer.
    struct.pack_into("<Q", ring._buf, 0, 0)
    stalls = ring.full_stalls
    assert not ring.try_write(frame)
    assert ring.full_stalls == stalls + 1
    ring.republish_head()
    assert ring.try_write(frame)
    assert ring.try_read() == frame


def test_ring_corrupt_length_raises(ring):
    """A zero or absurd length prefix (lost *data* store — never
    observed, but the blast radius would be silent garbage) fails loud."""
    ring.try_write(b"abcd")
    struct.pack_into("<I", ring._buf, _DATA_OFF, 0)
    with pytest.raises(ConfigurationError, match="corrupt frame length"):
        ring.try_read()


def test_ring_minimum_size_enforced():
    with pytest.raises(ConfigurationError):
        SpscRing(size=16)


def test_ring_created_before_fork_carries_a_childs_frame(ring):
    """The anonymous mapping is shared with a forked child: what the
    child publishes, the parent reads, and nothing named is left over."""
    import os

    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child exits without returning
        os._exit(0 if ring.try_write(b"from the child") else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert ring.try_read() == b"from the child"
    assert ring.try_read() is None
    ring.close()
    assert ring.shm.closed


# ----------------------------------------------------------------------
# EventCodec.
# ----------------------------------------------------------------------
_SCHEMA = {
    "arrive": (("packet", "I"), ("jitter", "d")),
    "tick": (),
}


def _event(ts=3.25, origin=7, seq=11, dst=5, kind="arrive", data=None):
    return Event(EventKey(ts, origin, seq), dst, kind, data)


def test_codec_positive_roundtrip_with_float_payload():
    codec = EventCodec(_SCHEMA)
    ev = _event(data={"packet": 42, "jitter": 0.1 + 0.2})  # not exactly 0.3
    frame = codec.encode_event(ev, uid=909)
    assert frame[0] == POSITIVE
    tag, uid, ts, origin, seq, dst, kind, data = codec.decode(frame)
    assert (tag, uid, kind) == ("pos", 909, "arrive")
    assert (ts, origin, seq, dst) == (3.25, 7, 11, 5)
    assert data["packet"] == 42
    assert data["jitter"] == 0.1 + 0.2  # f64 exact through the wire


def test_codec_payloadless_kind_roundtrip():
    codec = EventCodec(_SCHEMA)
    frame = codec.encode_event(_event(kind="tick"), uid=13)
    assert codec.decode(frame) == ("pos", 13, 3.25, 7, 11, 5, "tick", {})


def test_codec_anti_roundtrip():
    codec = EventCodec(_SCHEMA)
    frame = codec.encode_anti(_event(), uid=77)
    assert frame[0] == ANTI
    assert codec.decode(frame) == ("anti", 77, 3.25, 7, 11, 5)


def test_codec_refuses_unknown_kind_and_missing_schema():
    codec = EventCodec(_SCHEMA)
    with pytest.raises(ConfigurationError, match="not in the model's"):
        codec.encode_event(_event(kind="mystery"), uid=1)
    with pytest.raises(ConfigurationError, match="no mp event schema"):
        EventCodec({})
    with pytest.raises(ConfigurationError, match="corrupt ring frame"):
        codec.decode(b"\xff")


def test_codec_matches_hotpotato_model_schema():
    """The bundled workload's declared schema must build a codec and
    carry its cross-worker kind (ARRIVE) losslessly."""
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.model import HotPotatoModel

    model = HotPotatoModel(HotPotatoConfig(n=4))
    codec = EventCodec(model.mp_event_schema())
    schema = model.mp_event_schema()
    kind = sorted(schema)[0]
    data = {name: 1 for name, _ in schema[kind]}
    ev = _event(kind=kind, data=data)
    decoded = codec.decode(codec.encode_event(ev, uid=5))
    assert decoded[6] == kind
    assert decoded[7] == data


_RANGES = {
    "i": st.integers(-(2**31), 2**31 - 1),
    "I": st.integers(0, 2**32 - 1),
    "B": st.integers(0, 255),
    "Q": st.integers(0, 2**64 - 1),
    "d": st.floats(allow_nan=False),
}


def _hotpotato_schema():
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.model import HotPotatoModel

    return HotPotatoModel(HotPotatoConfig(n=4)).mp_event_schema()


@st.composite
def _frames(draw):
    """A header, a kind of the hot-potato schema and a payload drawn over
    the declared struct ranges."""
    schema = _hotpotato_schema()
    kind = draw(st.sampled_from(sorted(schema)))
    head = tuple(draw(_RANGES[ch]) for ch in "QdIII")  # uid, ts, origin, seq, dst
    values = tuple(draw(_RANGES[ch]) for _, ch in schema[kind])
    return schema, kind, head, values


@settings(max_examples=200, deadline=None)
@given(_frames())
def test_codec_roundtrip_both_layouts_and_anti(case):
    """``decode(encode(ev))`` is the key, dst, kind and a payload of the
    same type and value — dict in, dict out; tuple in, tuple out — and
    the frame names its layout in its type byte."""
    schema, kind, (uid, ts, origin, seq, dst), values = case
    codec = EventCodec(schema)
    as_dict = {name: v for (name, _), v in zip(schema[kind], values)}
    for data, ftype in ((as_dict, POSITIVE), (values, POSITIONAL)):
        if data == ():
            continue  # no payload: Event() makes it the empty dict
        ev = Event(EventKey(ts, origin, seq), dst, kind, data)
        frame = codec.encode_event(ev, uid)
        assert frame[0] == ftype
        decoded = codec.decode(frame)
        assert decoded[:7] == ("pos", uid, ts, origin, seq, dst, kind)
        payload = decoded[7]
        assert type(payload) is type(data) and payload == data
        fields = payload.values() if ftype == POSITIVE else payload
        assert [type(v) for v in fields] == [type(v) for v in values]
        with pytest.raises(ConfigurationError, match="corrupt ring frame"):
            codec.decode(b"\x00" + frame[1:])
    # Same struct either way: the layouts cost the same bytes on the ring.
    if values:
        ev_d = Event(EventKey(ts, origin, seq), dst, kind, as_dict)
        ev_t = Event(EventKey(ts, origin, seq), dst, kind, values)
        assert len(codec.encode_event(ev_d, uid)) == len(codec.encode_event(ev_t, uid))
    anti = codec.encode_anti(Event(EventKey(ts, origin, seq), dst, kind, None), uid)
    assert codec.decode(anti) == ("anti", uid, ts, origin, seq, dst)


def test_codec_probe_event_is_pinned():
    """perfbench/probes.py times this event through ``EventCodec(schema)``
    and reads ``decode(frame)[7]``: dict in, equal dict out."""
    from repro.hotpotato.router import ARRIVE

    codec = EventCodec(_hotpotato_schema())
    data = {"step": 12, "dest": 5, "priority": 1, "inject_step": 3,
            "jitter": 0.25, "distance": 4, "src": 7}
    ev = Event(EventKey(12.25, 7, 3), 8, ARRIVE, data)
    frame = codec.encode_event(ev, 99)
    assert frame[0] == POSITIVE
    decoded = codec.decode(frame)
    assert decoded == ("pos", 99, 12.25, 7, 3, 8, ARRIVE, data)
    assert type(decoded[7]) is dict


def test_positional_layout_is_the_soa_payload_order():
    """A positional frame packs ``*data``: the schema's field order must
    be the routers' packet-tuple order, ``router.PACKET_FIELDS``, for
    both packet kinds — and the tuples the handlers build must put each
    value under its name."""
    from repro.hotpotato import router
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.router import ARRIVE, INJECT, ROUTE
    from tests.router_harness import execute, make_router

    schema = _hotpotato_schema()
    for kind in (ARRIVE, ROUTE):
        assert tuple(name for name, _ in schema[kind]) == router.PACKET_FIELDS
    for index, name in enumerate(router.PACKET_FIELDS):
        assert getattr(router, "P_" + name.upper()) == index
    lp, sends, topo = make_router(5, HotPotatoConfig(n=4))
    execute(lp, INJECT, 3, ts=3.9)
    packet = dict(zip(router.PACKET_FIELDS, sends[-1].data))
    assert (packet["step"], packet["inject_step"], packet["src"]) == (4, 3, 5)
    assert packet["priority"] == 0 and 0.0 < packet["jitter"] <= 0.5
    assert packet["distance"] == topo.route_info(5, packet["dest"])[3]


# ----------------------------------------------------------------------
# WaveCodec.
# ----------------------------------------------------------------------
def test_wave_token_roundtrip():
    codec = WaveCodec(3)
    slots = [(10, 9, 1.5, False), (4, 5, TIME_HORIZON, True), (0, 0, 2.25, False)]
    frame = codec.encode_token(7, slots)
    assert frame[0] == TOKEN
    assert codec.decode_token(frame) == (7, slots)


def test_wave_result_roundtrip():
    frame = WaveCodec.encode_result(12.5, stop=True, intr=False)
    assert WaveCodec.decode_result(frame) == (12.5, True, False)
    frame = WaveCodec.encode_result(0.0, stop=False, intr=True)
    assert WaveCodec.decode_result(frame) == (0.0, False, True)


def test_wave_codec_needs_two_workers():
    with pytest.raises(ConfigurationError):
        WaveCodec(1)
