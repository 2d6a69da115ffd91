"""Cross-process GVT waves: Mattern-style token counting over a control ring.

Workers form a unidirectional token ring on the control rings
(worker ``i`` writes only to ``(i+1) % procs``).  Worker 0 is the
*leader*; it starts a wave every ``gvt_interval`` scheduling rounds (or
when idle).  A wave is stop-and-drain: once a worker joins it stops
executing pending events and only drains its incoming data rings
(arrivals may still trigger rollbacks, whose anti-messages are sent and
counted like any other frame) until the leader broadcasts the result.

Each token pass carries, per worker, the *cumulative* data-ring frames
sent and received (positives **and** antis — a lost in-flight anti would
silently corrupt a later resumed shard) plus the worker's local virtual
minimum.  The leader ends the wave when two consecutive passes are
globally balanced (Σsent == Σrecv) **and** element-wise identical:
monotone counters mean an unchanged balanced vector proves no frame
moved anywhere between the two passes, so at the instant of the last
pass's final report the rings were truly empty and every local minimum
exact — the classic two-identical-cuts termination of Mattern's
algorithm, with the token slots playing the red/white counters.  The
resulting GVT is ``min`` over the local minima, clamped monotone.

The RESULT broadcast travels the same ring (each worker forwards it
onward; the leader absorbs its own copy coming back around) and carries
the new GVT plus two flags: *stop* (GVT reached end_time — exit after
this boundary) and *intr* (some worker observed SIGINT — every worker
writes a final checkpoint shard at this same wave and exits, keeping the
shard set mutually consistent; a worker must never unilaterally abandon
the token ring or its peers deadlock).
"""

from __future__ import annotations

import struct

from repro.errors import ConfigurationError

__all__ = ["WaveCodec", "TOKEN", "RESULT"]

TOKEN = 0x54   # "T"
RESULT = 0x52  # "R"

_RESULT = struct.Struct("<BdB")
_STOP = 0x01
_INTR = 0x02


class WaveCodec:
    """Token / RESULT frame packing for a ``procs``-worker ring."""

    __slots__ = ("procs", "_token")

    def __init__(self, procs: int) -> None:
        if procs < 2:
            raise ConfigurationError("GVT waves need at least 2 workers")
        self.procs = procs
        # type, pass number, then per worker (sent, recv, min, intr).
        self._token = struct.Struct("<BI" + "QQdB" * procs)

    # -- token ---------------------------------------------------------
    def encode_token(self, pass_no: int, slots) -> bytes:
        """Pack one token pass: per-worker ``(sent, recv, min, intr)``."""
        flat = [TOKEN, pass_no]
        for sent, recv, local_min, intr in slots:
            flat.extend((sent, recv, local_min, 1 if intr else 0))
        return self._token.pack(*flat)

    def decode_token(self, frame: bytes):
        """Returns ``(pass_no, [(sent, recv, min, intr), ...])``."""
        values = self._token.unpack(frame)
        pass_no = values[1]
        slots = [
            (values[2 + 4 * i], values[3 + 4 * i],
             values[4 + 4 * i], bool(values[5 + 4 * i]))
            for i in range(self.procs)
        ]
        return pass_no, slots

    # -- result --------------------------------------------------------
    @staticmethod
    def encode_result(gvt: float, stop: bool, intr: bool) -> bytes:
        flags = (_STOP if stop else 0) | (_INTR if intr else 0)
        return _RESULT.pack(RESULT, gvt, flags)

    @staticmethod
    def decode_result(frame: bytes):
        """Returns ``(gvt, stop, intr)``."""
        _, gvt, flags = _RESULT.unpack(frame)
        return gvt, bool(flags & _STOP), bool(flags & _INTR)
