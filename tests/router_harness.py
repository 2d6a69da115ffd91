"""One router out of a built population, driven handler by handler.

Shared by the handler-level tests (``test_hotpotato_router*.py``): a
router is taken from ``HotPotatoModel.build()`` — the only way the product
makes one — bound to a send recorder, executed through the model's
handler table (``HotPotatoModel.handlers``, what every engine calls) and
undone through ``RouterLP.reverse``, the way the Time Warp kernel does it
(RNG journaling, ``send_seq`` restore).
"""

from repro.core.event import Event
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.packet import Priority
from repro.rng.streams import ReversibleStream
from repro.vt.time import EventKey


#: The handler table each router made here executes through.
_TABLES: dict = {}


def make_router(node, cfg, **model_kw):
    """``(lp, sends, topo)``: router ``node`` of ``HotPotatoModel(cfg)``."""
    model = HotPotatoModel(cfg, **model_kw)
    lps = model.build()
    lp = lps[node]
    sends = []
    lp.bind(ReversibleStream(11, node), lambda src, ev: sends.append(ev))
    _TABLES[lp] = model.handlers(lps, [p.send for p in lps])
    return lp, sends, model.topo


def own_links(lp):
    """This router's four slots of the population's claim list."""
    return lp.links[lp.base : lp.base + 4]


def claim(lp, steps):
    """Set this router's four link claims (one step per direction)."""
    lp.links[lp.base : lp.base + 4] = steps


def state_of(lp):
    """Everything a handler may touch — the whole shared lists included,
    so a reverse that strays into a neighbour's slots is caught too."""
    return (
        tuple(lp.links),
        tuple(lp.head_gen),
        lp.stats.signature(),
        lp.rng.checkpoint(),
        lp.send_seq,
    )


def execute(lp, kind, data, ts=1.0):
    """Kernel-style execution through the table, with RNG journaling."""
    ev = Event(EventKey(ts, lp.id, 999), lp.id, kind, data)
    ev.prev_send_seq = lp.send_seq
    before = lp.rng.count
    lp._now = ts
    _TABLES[lp][kind](ev, lp.id, lp.rng)
    ev.rng_draws = lp.rng.count - before
    return ev


def undo(lp, ev):
    """Kernel-style undo (reverse computation)."""
    lp.reverse(ev)
    lp.rng.reverse(ev.rng_draws)
    lp.send_seq = ev.prev_send_seq


def packet(step, dest, priority=Priority.SLEEPING, inject_step=0, jitter=0.25,
           distance=1, src=0):
    """A packet tuple in ``router.PACKET_FIELDS`` order."""
    return (step, dest, int(priority), inject_step, jitter, distance, src)
