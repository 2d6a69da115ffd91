"""Single-producer single-consumer byte rings over shared memory.

One :class:`SpscRing` is one direction of one worker pair: exactly one
process writes frames, exactly one process reads them, and the two never
share a cursor.  The ring is an anonymous shared mapping,
``mmap.mmap(-1, size)``, created by the parent before it forks and
inherited by the workers: it has no POSIX name, so there is no
``/dev/shm`` entry, no tracker process watching it and nothing to
unlink — the pages go away when the last process holding the mapping
exits or closes it.  The layout inside the mapping is::

    offset 0    head  (u64, little-endian) — written by the CONSUMER only
    offset 64   tail  (u64, little-endian) — written by the PRODUCER only
    offset 128  data  (capacity bytes, byte-granular wrap-around)

``head`` and ``tail`` are monotone absolute byte counters (never reduced
modulo the capacity), padded to separate cache lines so the two sides
never write the same line.  A frame is a ``u32`` length prefix followed
by the payload; both may wrap around the end of the data region.

Why this is safe without locks: each 8-byte cursor has exactly one
writer, CPython writes it with a single aligned ``struct.pack_into``
(no torn 8-byte stores on the 64-bit platforms we run on), and x86-64's
total-store-order memory model guarantees the producer's payload bytes
are visible before the tail advance that publishes them (and
symmetrically for the consumer's head advance that frees them).  On
weakly-ordered ISAs this would need fences; the interpreter's own
internal locking makes the race window academic there, but the design
target is x86-64 Linux (documented in docs/KERNEL.md).

Each side keeps its OWN cursor authoritative in ordinary process memory
(``self.tail`` for the producer, ``self.head`` for the consumer) and
treats the shared copy as write-only: published after every operation
and republished by the ``republish_*`` heartbeats each scheduling round.
A side only ever *reads* the other side's cursor from shared memory.
This makes the ring self-healing against lost cursor stores (observed
in the wild on a virtualized kernel: a hot 8-byte cursor slot reverted
to its initial value while every neighbouring byte kept its latest
write).  A reverted shared cursor can then only *under*-report the
other side's progress — the ring looks briefly empty to the consumer or
full to the producer, both safe outcomes — and the next republish
heals it.  Frame payloads are written once, never rewritten, so they do
not share this exposure; ``try_read`` still validates every length
prefix and fails loudly rather than propagating garbage.

Full-ring behaviour is the caller's problem by design: ``try_write``
returns ``False`` (counting a full-stall) instead of blocking, and the
:class:`~repro.mp.transport.RingTransport` spills to a local overflow
queue — a worker must never block mid-rollback waiting for a peer that
may itself be blocked writing back (the classic transport deadlock).
"""

from __future__ import annotations

import mmap
import struct

from repro.errors import ConfigurationError

__all__ = ["SpscRing", "DEFAULT_RING_BYTES"]

#: Default data-region size per ring.  Event frames are ~60 bytes, so a
#: mebibyte buffers ~17k in-flight events per directed worker pair —
#: far beyond what the stop-and-drain GVT waves let accumulate.
DEFAULT_RING_BYTES = 1 << 20

_CURSOR = struct.Struct("<Q")
_LEN = struct.Struct("<I")
_HEAD_OFF = 0
_TAIL_OFF = 64
_DATA_OFF = 128


class SpscRing:
    """One direction of one worker pair (see the module docstring).

    The parent process creates every ring pre-fork; workers inherit the
    same object, and the same shared pages, through ``fork`` and use it
    as-is — no name lookup, no pickling, no re-attachment.
    """

    __slots__ = (
        "shm", "capacity", "_buf", "tail", "head",
        "messages_written", "bytes_written", "full_stalls",
        "messages_read", "bytes_read",
    )

    def __init__(self, size: int = DEFAULT_RING_BYTES) -> None:
        if size < _DATA_OFF + 64:
            raise ConfigurationError(f"ring size {size} too small")
        # An anonymous mapping starts zero-filled: both cursors read 0
        # without the parent touching (and paying RSS for) a page.
        self.shm = mmap.mmap(-1, size)
        self.capacity = size - _DATA_OFF
        self._buf = memoryview(self.shm)
        # Authoritative own-side cursors.  The producer trusts only
        # ``self.tail`` and the consumer only ``self.head``; the shared
        # copies exist solely for the *other* side to read.  Rings are
        # created pre-fork at zero, so both children inherit matching
        # caches.
        self.tail = 0
        self.head = 0
        # Producer-side counters (the consumer keeps its own read side).
        self.messages_written = 0
        self.bytes_written = 0
        self.full_stalls = 0
        self.messages_read = 0
        self.bytes_read = 0

    # -- cursor access -------------------------------------------------
    def _head(self) -> int:
        return _CURSOR.unpack_from(self._buf, _HEAD_OFF)[0]

    def _tail(self) -> int:
        return _CURSOR.unpack_from(self._buf, _TAIL_OFF)[0]

    # -- producer side -------------------------------------------------
    def try_write(self, frame: bytes) -> bool:
        """Append one frame; ``False`` (+ a full-stall count) if no room."""
        need = _LEN.size + len(frame)
        if need > self.capacity:
            raise ConfigurationError(
                f"frame of {len(frame)} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        tail = self.tail
        # A stale (lost-store) shared head only under-reports consumer
        # progress, making this check conservative: worst case a
        # spurious full-stall, never an overwrite of unread frames.
        if self.capacity - (tail - self._head()) < need:
            self.full_stalls += 1
            return False
        self._put(tail, _LEN.pack(len(frame)))
        self._put(tail + _LEN.size, frame)
        self.tail = tail + need
        # Publish: the payload stores above precede this tail store in
        # program order, which x86-TSO preserves for the consumer.
        _CURSOR.pack_into(self._buf, _TAIL_OFF, self.tail)
        self.messages_written += 1
        self.bytes_written += len(frame)
        return True

    def republish_tail(self) -> None:
        """Rewrite the shared tail from the producer's cache.

        Heartbeat against lost cursor stores: the transport calls this
        every flush and the kernel calls it while spinning in control
        waves, so a reverted shared tail heals within one round instead
        of stranding published frames (which would unbalance the GVT
        wave counts and hang the token).  Producer-only.
        """
        _CURSOR.pack_into(self._buf, _TAIL_OFF, self.tail)

    def _put(self, pos: int, data: bytes) -> None:
        cap = self.capacity
        idx = pos % cap
        end = idx + len(data)
        if end <= cap:
            self._buf[_DATA_OFF + idx:_DATA_OFF + end] = data
        else:
            first = cap - idx
            self._buf[_DATA_OFF + idx:_DATA_OFF + cap] = data[:first]
            self._buf[_DATA_OFF:_DATA_OFF + end - cap] = data[first:]

    # -- consumer side -------------------------------------------------
    def try_read(self) -> bytes | None:
        """Pop the oldest frame, or ``None`` when the ring is empty."""
        head = self.head
        tail = self._tail()
        # ``<=`` rather than ``==``: a reverted shared tail reads below
        # our own head, and must mean "nothing visible yet", not "the
        # ring wrapped" — the producer's next republish restores it.
        if tail <= head:
            return None
        length = _LEN.unpack(self._get(head, _LEN.size))[0]
        if length == 0 or _LEN.size + length > self.capacity:
            raise ConfigurationError(
                f"corrupt frame length {length} at ring offset {head} "
                f"(head={head} tail={tail} capacity={self.capacity})"
            )
        frame = self._get(head + _LEN.size, length)
        self.head = head + _LEN.size + length
        _CURSOR.pack_into(self._buf, _HEAD_OFF, self.head)
        self.messages_read += 1
        self.bytes_read += length
        return frame

    def republish_head(self) -> None:
        """Rewrite the shared head from the consumer's cache.

        Consumer-side twin of :meth:`republish_tail`: heals a reverted
        shared head, which would otherwise make the producer
        under-estimate free space and spill to its overflow queue
        forever.
        """
        _CURSOR.pack_into(self._buf, _HEAD_OFF, self.head)

    def _get(self, pos: int, length: int) -> bytes:
        cap = self.capacity
        idx = pos % cap
        end = idx + length
        if end <= cap:
            return bytes(self._buf[_DATA_OFF + idx:_DATA_OFF + end])
        first = cap - idx
        return bytes(self._buf[_DATA_OFF + idx:_DATA_OFF + cap]) + bytes(
            self._buf[_DATA_OFF:_DATA_OFF + end - cap]
        )

    def __len__(self) -> int:
        """Unread bytes currently in the ring (either side may ask).

        Reads both shared cursors (neither side owns both), so a stale
        copy can transiently under-report; clamped at zero so a reverted
        cursor never yields a negative length.
        """
        return max(0, self._tail() - self._head())

    def close(self) -> None:
        """Drop this process's mapping (other processes keep theirs)."""
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        self.shm.close()


def destroy_segment(mapping: mmap.mmap) -> None:
    """Close one ring's mapping; a no-op after :meth:`SpscRing.close`.

    Rings used to be named segments that the creating process had to
    unlink.  An anonymous mapping has no name, so there is nothing left
    to destroy; this stays for callers written against the old
    teardown (``perfbench/probes.py``).
    """
    mapping.close()
