"""Virtual time primitives: timestamps, event keys, and the total order.

Discrete-event simulators require a *total* order over events so that every
engine — the sequential oracle and any optimistic schedule — commits events
in exactly the same sequence.  ROSS breaks timestamp ties "arbitrarily",
which makes parallel runs non-repeatable; the paper's fix (§3.2.2) is to
randomise arrival times so ties never occur.  We go one step further and
make the order total *by construction*: events are keyed by

    ``(recv_ts, origin_lp, origin_seq)``

where ``origin_seq`` is a per-LP monotone send counter that is itself part
of rolled-back state.  The random arrival jitter of the paper is still
implemented (and toggleable) in the hot-potato model, but repeatability no
longer depends on it.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.vt.time": (
        "EventKey", "KEY_EPOCH", "KEY_HORIZON", "TIME_EPOCH", "TIME_HORIZON",
    ),
})
