"""Tiny deterministic models used by the kernel test suite."""

from __future__ import annotations

from repro.core.event import Event
from repro.core.lp import LogicalProcess, Model

TICK = "TICK"
POKE = "POKE"


def plan_declined(model):
    """Test foil: ``model`` declines to offer its vector plan.

    The Time Warp kernel asks ``Model.vector_plan(lps)`` on every run and
    no product option says otherwise; to compare a band-stepped torus run
    with the same population stepped one event at a time (the kernel's
    per-event batch) a test therefore patches this one instance.  Forked
    workers inherit the patch.
    """
    model.vector_plan = lambda lps: None
    return model


def transport_faults(drop=0.05, dup=0.05, delay=0.1, seed=11):
    """Test foil: an ``EngineFaults`` whose plan carries transport faults only.

    Attached to a Time Warp kernel it wraps the transport, which is the
    one remaining configuration that keeps the generic ``_kernel_send`` →
    ``_emit`` → ``transport.deliver`` → ``_receive`` path with no tracer
    attached, and that holds messages in flight across rounds.  Committed
    results are unchanged by construction (every held message arrives).
    """
    from repro.faults.injector import EngineFaults
    from repro.faults.plan import FaultPlan

    return EngineFaults(
        FaultPlan(drop_rate=drop, dup_rate=dup, delay_rate=delay, seed=seed)
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
