"""True multicore Time Warp: multiprocess PEs over shared-memory rings.

This package implements process mode, ``EngineConfig.procs >= 2``
(``procs = 1`` is the in-process kernel): the PE population is split
across ``procs`` forked OS processes, events that cross workers travel
pickle-free over single-producer single-consumer shared-memory byte
rings, and GVT comes from Mattern-style counting token waves on a
control ring.  Committed
sequences are bit-identical to the sequential oracle regardless of the
process count — the schedule-invariance property every engine in this
repository maintains.

Layout:

* :mod:`repro.mp.ring`      — the SPSC shared-memory byte ring.
* :mod:`repro.mp.codec`     — struct encoding of events and antis.
* :mod:`repro.mp.gvt`       — token/RESULT wave frames and termination.
* :mod:`repro.mp.transport` — the per-worker ring transport.
* :mod:`repro.mp.kernel`    — the worker-side Time Warp kernel.
* :mod:`repro.mp.worker`    — forked-child harness and shard resume.
* :mod:`repro.mp.runtime`   — parent orchestration and result merge.

See ``docs/KERNEL.md`` ("Multicore execution") for the ring layout, the
wave protocol, and the failure-mode catalogue.
"""

from repro.mp.codec import EventCodec
from repro.mp.ring import DEFAULT_RING_BYTES, SpscRing, destroy_segment
from repro.mp.runtime import run_multiprocess

__all__ = [
    "DEFAULT_RING_BYTES",
    "EventCodec",
    "SpscRing",
    "destroy_segment",
    "run_multiprocess",
]
