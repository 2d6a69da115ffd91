"""Tiny deterministic models used by the kernel test suite."""

from __future__ import annotations

from repro.core.event import Event
from repro.core.lp import LogicalProcess, Model

TICK = "TICK"
POKE = "POKE"


def plan_spy(model, kinds):
    """Test probe: count the calls ``model``'s handler table serves.

    Wraps every handler the table offers for one of ``kinds`` and returns
    the counts, one slot per kind in ``kinds`` order, in shared memory:
    forked process-mode workers add to the same slots (unlocked; the
    counts are for "was it called", not exact totals across workers).
    """
    from multiprocessing.sharedctypes import RawArray

    counts = RawArray("q", len(kinds))
    offer = model.handlers

    def counted(slot, handler):
        def call(ev, dst, rng):
            counts[slot] += 1
            handler(ev, dst, rng)

        return call

    def handlers(lps, send):
        table = offer(lps, send)
        if table is None:
            return None
        return {
            kind: counted(kinds.index(kind), h) if kind in kinds else h
            for kind, h in table.items()
        }

    model.handlers = handlers
    return counts


def per_event_reference(model):
    """``model`` with its band program withheld, so the sequential engine
    runs every event through the handler table: the reference the band
    program is compared with, event for event, whatever is attached."""
    model.band_program = lambda: None
    return model


def band_spy(model):
    """Test probe: the steps at which ``model``'s band program is entered.

    Returns a list that every entry appends its start step to (empty when
    the run stayed on the per-event loop)."""
    entries = []
    offer = model.band_program

    def band_program():
        offered = offer()
        if offered is None:
            return None
        start, program = offered

        def entered(engine, processed, step, end):
            entries.append(step)
            return program(engine, processed, step, end)

        return start, entered

    model.band_program = band_program
    return entries


def run_batch(kernel, pe, max_events, limit_ts):
    """Step ``pe`` through one optimism batch of ``kernel``'s compiled loop.

    The loop ``TimeWarpKernel._run`` runs, for unit tests that drive the
    PEs by hand; the kernel's closures are compiled on first use.
    Returns the number of events executed.
    """
    if kernel._batch_by_pe is None:
        kernel._install_fast_paths()
    return kernel._batch_by_pe[pe.id](max_events, limit_ts)


def transport_faults(drop=0.05, dup=0.05, delay=0.1, seed=11, stalls=()):
    """Test foil: an ``EngineFaults`` whose plan carries transport faults only.

    Attached to a Time Warp kernel it wraps the transport, which is the
    one remaining configuration that keeps the generic ``_kernel_send`` →
    ``_emit`` → ``transport.deliver`` → ``_receive`` send path with no
    tracer attached, and that holds messages in flight across rounds.
    Committed results are unchanged by construction (every held message
    arrives), and so are they by any ``stalls`` (``PEStall`` windows).
    """
    from repro.faults.injector import EngineFaults
    from repro.faults.plan import FaultPlan

    return EngineFaults(
        FaultPlan(
            drop_rate=drop, dup_rate=dup, delay_rate=delay, stalls=stalls,
            seed=seed,
        )
    )


class ChattyLP(LogicalProcess):
    """Ticks once per unit time; optionally pokes a peer with a small delay.

    A poke sent by a later-scheduled PE lands in the peer's past, forcing a
    straggler rollback — the deterministic way to exercise Time Warp paths.
    """

    def __init__(self, lp_id: int, peer: int | None, poke_delay: float = 0.1):
        super().__init__(lp_id)
        self.peer = peer
        self.poke_delay = poke_delay
        self.state = [0, 0]  # [ticks, pokes received]

    def on_init(self) -> None:
        self.send(1.0, self.id, TICK)

    def forward(self, event: Event) -> None:
        if event.kind == TICK:
            self.state[0] += 1
            self.send(self.now + 1.0, self.id, TICK)
            if self.peer is not None:
                self.send(self.now + self.poke_delay, self.peer, POKE)
        else:
            self.state[1] += 1

    def reverse(self, event: Event) -> None:
        if event.kind == TICK:
            self.state[0] -= 1
        else:
            self.state[1] -= 1


class ChattyModel(Model):
    """``n_lps`` tickers; LPs listed in ``pokers`` poke their target."""

    def __init__(self, n_lps: int = 2, pokers: dict[int, int] | None = None):
        self.n_lps = n_lps
        self.pokers = pokers or {}

    def build(self) -> list[LogicalProcess]:
        return [
            ChattyLP(i, self.pokers.get(i)) for i in range(self.n_lps)
        ]

    def collect_stats(self, lps):
        return {
            "ticks": tuple(lp.state[0] for lp in lps),
            "pokes": tuple(lp.state[1] for lp in lps),
        }
