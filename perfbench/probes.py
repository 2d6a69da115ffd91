"""Layer probes: direct timed calls into each layer's public functions.

Runs as a child of ``run.py`` (it creates a shared-memory ring, and the
driver process must never do that; see ``hygiene.py``) and prints one JSON
object ``{metric: value}`` as its last line.  Each probe times a tight loop
over one public entry point, five times, and reports the median per call;
the loop's own overhead (~20 ns per iteration) is part of every figure, so
compare a probe with itself across commits, not with another probe.

    PYTHONPATH=src python perfbench/probes.py [--scale 0.1] [--snapshot F]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

TRIALS = 5


def per_call(fn, calls: int, unit: float = 1e9) -> float:
    """Median over TRIALS of (seconds for ``fn()``) / calls, in 1/unit s."""
    samples = []
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls * unit)
    return statistics.median(samples)


def probe_rng(calls: int, seed: int) -> dict:
    from repro.rng.streams import ReversibleStream

    stream = ReversibleStream(seed, 1)
    unif, reverse = stream.unif, stream.reverse

    def draw() -> None:
        for _ in range(calls):
            unif()

    def undo() -> None:  # the draws the previous draw() made, four at a time
        for _ in range(calls // 4):
            reverse(4)

    draws, undos = [], []
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        draw()
        t1 = time.perf_counter()
        undo()
        t2 = time.perf_counter()
        draws.append((t1 - t0) / calls * 1e9)
        undos.append((t2 - t1) / calls * 1e9)
    return {
        "rng.draw_ns": statistics.median(draws),
        "rng.reverse_ns": statistics.median(undos),
    }


def probe_queue(calls: int, seed: int, pending: int = 1024) -> dict:
    """Hold model: pop the minimum, push one event further out, at a
    steady ``pending`` events queued.  Events are built outside the timed
    loop, so this is the queue alone, not the allocator."""
    from repro.core.config import EngineConfig
    from repro.core.event import Event
    from repro.core.queue import make_pending_queue
    from repro.vt.time import EventKey

    rnd = random.Random(seed)
    samples = []
    for _ in range(TRIALS):
        events = [
            Event(EventKey(i + rnd.random() * pending, i % 64, i), i % 64, "p")
            for i in range(pending + calls)
        ]
        queue = make_pending_queue(EngineConfig(end_time=1.0).queue)
        for ev in events[:pending]:
            queue.push(ev)
        push, pop = queue.push, queue.pop
        rest = events[pending:]
        t0 = time.perf_counter()
        for ev in rest:
            pop()
            push(ev)
        samples.append((time.perf_counter() - t0) / calls * 1e9)
    return {"queue.hold_ns": statistics.median(samples)}


def probe_net(calls: int, seed: int) -> dict:
    from repro.net import TorusTopology

    topo = TorusTopology(32)
    rnd = random.Random(seed)
    pairs = [
        (rnd.randrange(topo.num_nodes), rnd.randrange(topo.num_nodes))
        for _ in range(4096)
    ]
    route_info = topo.route_info
    for src, dst in pairs:  # the routers' steady state is a warm cache
        route_info(src, dst)
    rounds = max(1, calls // len(pairs))

    def lookups() -> None:
        for _ in range(rounds):
            for src, dst in pairs:
                route_info(src, dst)

    return {"net.route_ns": per_call(lookups, rounds * len(pairs))}


def probe_build(n: int) -> dict:
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.model import HotPotatoModel

    def build() -> None:
        HotPotatoModel(HotPotatoConfig(n=n)).build()

    return {"model.build_s": per_call(build, 1, unit=1.0)}


def arrive_codec_and_event():
    """The codec of the hot-potato schema and one ARRIVE event, the only
    kind that crosses a worker boundary."""
    from repro.core.event import Event
    from repro.hotpotato.config import HotPotatoConfig
    from repro.hotpotato.model import HotPotatoModel
    from repro.hotpotato.router import ARRIVE
    from repro.mp.codec import EventCodec
    from repro.vt.time import EventKey

    codec = EventCodec(HotPotatoModel(HotPotatoConfig(n=4)).mp_event_schema())
    ev = Event(
        EventKey(12.25, 7, 3), 8, ARRIVE,
        {"step": 12, "dest": 5, "priority": 1, "inject_step": 3,
         "jitter": 0.25, "distance": 4, "src": 7},
    )
    return codec, ev


def probe_codec(calls: int, codec, ev) -> dict:
    encode, decode = codec.encode_event, codec.decode
    frame = encode(ev, 99)
    if decode(frame)[7] != ev.data:
        raise RuntimeError("codec round trip changed the event")

    def enc() -> None:
        for uid in range(calls):
            encode(ev, uid)

    def dec() -> None:
        for _ in range(calls):
            decode(frame)

    return {
        "codec.encode_ns": per_call(enc, calls),
        "codec.decode_ns": per_call(dec, calls),
    }


def probe_ring(calls: int, frame: bytes) -> dict:
    from repro.mp.ring import SpscRing, destroy_segment

    ring = SpscRing(1 << 20)
    try:
        write, read = ring.try_write, ring.try_read

        def xfer() -> None:
            for _ in range(calls):
                write(frame)
                read()

        if not write(frame) or read() != frame:
            raise RuntimeError("ring round trip changed the frame")
        return {"ring.xfer_ns": per_call(xfer, calls)}
    finally:
        ring.close()
        destroy_segment(ring.shm)


def probe_snapshot_read(path: str) -> dict:
    from repro.ckpt import read_snapshot

    return {"ckpt.read_ms": per_call(lambda: read_snapshot(path), 1, unit=1e3)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--snapshot", help="a snapshot file to time read_snapshot on")
    args = ap.parse_args()
    calls = max(1000, int(40_000 * args.scale))
    out = {}
    out.update(probe_rng(calls, args.seed))
    out.update(probe_queue(calls, args.seed))
    out.update(probe_net(calls, args.seed))
    out.update(probe_build(max(4, round(64 * args.scale ** 0.5))))
    codec, ev = arrive_codec_and_event()
    out.update(probe_codec(calls, codec, ev))
    out.update(probe_ring(calls, codec.encode_event(ev, 99)))
    if args.snapshot:
        out.update(probe_snapshot_read(args.snapshot))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
