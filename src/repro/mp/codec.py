"""Pickle-free event encoding for the shared-memory rings.

Every frame that crosses a data ring is fixed-width ``struct`` packing —
no pickle on the hot path, ever.  Three frame types:

* **positive** (``P``): a real event in flight to a remote worker's LP.
  Header ``<B Q d I I I B`` = (type, uid, ts, origin, seq, dst, kind_id)
  followed by the kind's payload struct, packed from the event's ``data``
  dict by field name.
* **positional positive** (``T``): the same header and the same payload
  struct, packed from a ``data`` *tuple* whose element order is the
  schema's field order (the hot-potato routers' packets, see
  :data:`repro.hotpotato.router.PACKET_FIELDS`) and decoded back to a
  tuple.  Each frame says which layout it carries, so no mode is shared
  between workers.
* **anti** (``A``): a Time Warp anti-message for a previously sent
  positive, identified by the sender-assigned ``uid`` (the full event
  key rides along for error reporting only).

The payload layout is declared by the *model* through
``Model.mp_event_schema()``: a mapping of event kind to an ordered
``((field, struct_char), ...)`` tuple over the event's ``data``.
Workers on both sides build identical codecs from the same model, so a
kind id is just the kind's index in sorted order.  A model without a
schema (or an event whose kind is missing from it) cannot cross a
process boundary, and the runtime refuses the run up front rather than
silently pickling.

The ``uid`` names one positive exactly.  A rolled-back event's re-execution
reuses the event keys of the sends it cancelled (the send sequence is
restored on undo), so a key alone names a *send slot*, not a message.
An anti leaves at rollback time, before the re-execution can put
the same key back on the wire, and each ring is FIFO, so the two would
still pair up by key; the uid makes that pairing independent of the
ordering argument and doubles as the sender's "crossed a ring" mark in
``Event.color``.  Sender-unique uids (``worker_index + procs *
counter``) make every positive individually addressable.
"""

from __future__ import annotations

import struct

from repro.errors import ConfigurationError

__all__ = ["EventCodec", "POSITIVE", "POSITIONAL", "ANTI"]

POSITIVE = 0x50    # "P"
POSITIONAL = 0x54  # "T"
ANTI = 0x41        # "A"

_POS_HEAD = struct.Struct("<BQdIIIB")
_ANTI = struct.Struct("<BQdIII")


class EventCodec:
    """Encode/decode events against one model's declared schema."""

    __slots__ = ("kinds", "_kind_id", "_fields", "_structs")

    def __init__(self, schema) -> None:
        if not schema:
            raise ConfigurationError(
                "model declares no mp event schema; process-mode runs need "
                "Model.mp_event_schema() (see docs/KERNEL.md)"
            )
        self.kinds = tuple(sorted(schema))
        if len(self.kinds) > 0xFF:
            raise ConfigurationError("more than 255 event kinds")
        self._kind_id = {kind: i for i, kind in enumerate(self.kinds)}
        self._fields = []
        self._structs = []
        for kind in self.kinds:
            spec = tuple(schema[kind])
            self._fields.append(tuple(name for name, _ in spec))
            self._structs.append(
                struct.Struct("<" + "".join(ch for _, ch in spec))
            )

    # -- positives -----------------------------------------------------
    def encode_event(self, ev, uid: int) -> bytes:
        """Pack one positive event into a frame addressed by ``uid``."""
        kind_id = self._kind_id.get(ev.kind)
        if kind_id is None:
            raise ConfigurationError(
                f"event kind {ev.kind!r} is not in the model's mp event "
                "schema; it cannot cross a process boundary"
            )
        key = ev.key
        data = ev.data
        positional = type(data) is tuple
        head = _POS_HEAD.pack(
            POSITIONAL if positional else POSITIVE,
            uid, key.ts, key.origin, key.seq, ev.dst, kind_id,
        )
        if positional:
            return head + self._structs[kind_id].pack(*data)
        fields = self._fields[kind_id]
        if not fields:
            return head
        return head + self._structs[kind_id].pack(
            *(data[name] for name in fields)
        )

    def decode(self, frame: bytes):
        """Decode one frame.

        Returns ``("pos", uid, ts, origin, seq, dst, kind, data)`` for a
        positive — ``data`` a dict, or a tuple for a positional frame —
        or ``("anti", uid, ts, origin, seq, dst)`` for an anti-message.
        """
        ftype = frame[0]
        if ftype == POSITIVE or ftype == POSITIONAL:
            _, uid, ts, origin, seq, dst, kind_id = _POS_HEAD.unpack_from(frame)
            data = self._structs[kind_id].unpack_from(frame, _POS_HEAD.size)
            if ftype == POSITIVE:
                data = dict(zip(self._fields[kind_id], data))
            return ("pos", uid, ts, origin, seq, dst, self.kinds[kind_id], data)
        if ftype == ANTI:
            _, uid, ts, origin, seq, dst = _ANTI.unpack(frame)
            return ("anti", uid, ts, origin, seq, dst)
        raise ConfigurationError(f"corrupt ring frame (type byte {ftype:#x})")

    # -- antis ---------------------------------------------------------
    @staticmethod
    def encode_anti(ev, uid: int) -> bytes:
        """Pack the anti-message frame for the positive sent as ``uid``."""
        key = ev.key
        return _ANTI.pack(ANTI, uid, key.ts, key.origin, key.seq, ev.dst)
