"""Handler-level tests for the buffered router: forward effects + reverses."""

import pytest

from repro.baselines.buffered import (
    B_ACK,
    B_ARRIVE,
    B_INJECT,
    B_STEP,
    BufferedConfig,
    BufferedRouterLP,
)
from repro.core.event import Event
from repro.net import Direction, TorusTopology
from repro.rng.streams import ReversibleStream
from repro.vt.time import EventKey


@pytest.fixture
def setup():
    cfg = BufferedConfig(n=4, duration=50.0, window=2)
    topo = TorusTopology(4)
    sends = []
    lp = BufferedRouterLP(5, cfg, topo, is_injector=True)
    lp.bind(ReversibleStream(9, 5), lambda src, ev: sends.append(ev))
    return lp, sends, topo


def state_of(lp):
    return (
        tuple(tuple(id(p) for p in q) for q in lp.queues),
        lp.outstanding,
        lp.head_gen_step,
        lp.delivered,
        lp.total_delivery_time,
        lp.injected,
        lp.total_inject_wait,
        lp.window_blocked,
        lp.forwarded,
        lp.queue_len_sum,
        lp.rng.checkpoint(),
        lp.send_seq,
    )


def execute(lp, kind, data, ts):
    ev = Event(EventKey(ts, lp.id, 77), lp.id, kind, data)
    ev.saved = {}  # the fresh journal every execution gets
    ev.prev_send_seq = lp.send_seq
    before = lp.rng.count
    lp._now = ts
    lp.forward(ev)
    ev.rng_draws = lp.rng.count - before
    return ev


def undo(lp, ev):
    lp._now = ev.key.ts
    lp.reverse(ev)
    lp.rng.reverse(ev.rng_draws)
    lp.send_seq = ev.prev_send_seq


def test_arrive_transit_enqueues_by_dimension_order(setup):
    lp, sends, topo = setup
    dest = topo.neighbor(lp.id, Direction.EAST)
    pkt = {"step": 3, "dest": dest, "inject_step": 1, "src": 0}
    execute(lp, B_ARRIVE, pkt, 3.25)
    assert lp.queues[Direction.EAST] == [pkt]
    assert sends == []


def test_arrive_at_destination_delivers_and_acks(setup):
    lp, sends, topo = setup
    pkt = {"step": 4, "dest": lp.id, "inject_step": 1, "src": 2}
    execute(lp, B_ARRIVE, pkt, 4.25)
    assert lp.delivered == 1
    assert lp.total_delivery_time == 3
    (ack,) = sends
    assert ack.kind == B_ACK and ack.dst == 2


def test_step_serves_one_per_link_fifo(setup):
    lp, sends, topo = setup
    first = {"step": 5, "dest": topo.neighbor(lp.id, Direction.EAST), "inject_step": 1, "src": 0}
    second = dict(first, inject_step=2)
    lp.queues[Direction.EAST].extend([first, second])
    execute(lp, B_STEP, {"step": 5}, 5.6)
    arrives = [e for e in sends if e.kind == B_ARRIVE]
    (arrive,) = arrives
    assert arrive.data["inject_step"] == 1  # FIFO: first in, first out
    assert lp.queues[Direction.EAST] == [second]
    assert lp.forwarded == 1
    assert lp.util_claimed == 1


def test_inject_respects_window(setup):
    lp, sends, topo = setup
    lp.outstanding = 2  # window is 2
    execute(lp, B_INJECT, {"step": 0}, 0.9)
    assert lp.injected == 0
    assert lp.window_blocked == 1


def test_ack_opens_window(setup):
    lp, sends, topo = setup
    lp.outstanding = 2
    ev = execute(lp, B_ACK, {}, 1.5)
    assert lp.outstanding == 1
    undo(lp, ev)
    assert lp.outstanding == 2


@pytest.mark.parametrize(
    "kind,data,ts,prep",
    [
        (B_ARRIVE, {"step": 4, "dest": 5, "inject_step": 1, "src": 2}, 4.25, None),
        (B_STEP, {"step": 5}, 5.6, "queue"),
        (B_INJECT, {"step": 0}, 0.9, None),
        (B_INJECT, {"step": 0}, 0.9, "window_full"),
    ],
)
def test_reverse_restores_exactly(setup, kind, data, ts, prep):
    lp, sends, topo = setup
    if prep == "queue":
        lp.queues[Direction.EAST].append(
            {"step": 5, "dest": topo.neighbor(lp.id, Direction.EAST), "inject_step": 1, "src": 0}
        )
    elif prep == "window_full":
        lp.outstanding = 2
    before = state_of(lp)
    ev = execute(lp, kind, data, ts)
    undo(lp, ev)
    assert state_of(lp) == before


def test_snapshot_restore_roundtrip(setup):
    lp, sends, topo = setup
    execute(lp, B_INJECT, {"step": 0}, 0.9)
    snap = lp.snapshot_state()
    execute(lp, B_INJECT, {"step": 1}, 1.9)
    lp.restore_state(snap)
    assert lp.injected == 1
    assert lp.head_gen_step == 1
