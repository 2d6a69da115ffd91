"""True multicore Time Warp: multiprocess PEs over shared-memory rings.

This package implements process mode, ``EngineConfig.procs >= 2``
(``procs = 1`` is the in-process kernel): the PE population is split
across ``procs`` forked OS processes, events that cross workers travel
pickle-free over single-producer single-consumer byte rings in
anonymous shared mappings (created before fork, inherited by it: no
POSIX name, no tracker process, nothing to unlink), and GVT comes from
Mattern-style counting token waves on a control ring.  Committed
sequences are bit-identical to the sequential oracle regardless of the
process count — the schedule-invariance property every engine in this
repository maintains.

Layout:

* :mod:`repro.mp.ring`      — the SPSC byte ring over an anonymous mapping.
* :mod:`repro.mp.codec`     — struct encoding of events and antis.
* :mod:`repro.mp.gvt`       — token/RESULT wave frames and termination.
* :mod:`repro.mp.transport` — the per-worker ring transport.
* :mod:`repro.mp.kernel`    — the worker-side Time Warp kernel.
* :mod:`repro.mp.worker`    — forked-child harness and shard resume.
* :mod:`repro.mp.runtime`   — parent orchestration and result merge.

See ``docs/KERNEL.md`` ("Multicore execution") for the ring layout, the
wave protocol, and the failure-mode catalogue.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.mp.ring": ("DEFAULT_RING_BYTES", "SpscRing"),
    "repro.mp.codec": ("EventCodec",),
    "repro.mp.runtime": ("run_multiprocess",),
})
