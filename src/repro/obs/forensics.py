"""Run forensics: turn a recording into answers about *what went wrong*.

Four analyses over a loaded :class:`~repro.obs.recorder.RunRecording`:

* **Hot spots** — per-LP UNDO counts (from the trace) and per-KP
  events-rolled-back totals (from the metric samples): which parts of
  the model thrash, and whether the KP containment the report's §4.2.3
  studies is actually containing them.
* **Rollback chains** — reconstruction of rollback episodes from the
  trace stream.  The kernel emits UNDO records tail-first as a KP
  unwinds, so a maximal run of consecutive UNDO records is one episode
  (a straggler or anti-message cascade); the chain's length, LP spread
  and trigger (the next EXEC after the chain, i.e. the re-execution
  front) characterise storms far better than the aggregate count.
* **Attribution** — the causal view of the same chains: which *source*
  LPs (and which source→victim links) triggered them, how much executed
  work each undid, and how often single events were undone repeatedly
  (the anti-message-storm signature).
* **Diff** — field-by-field comparison of two recordings' final stats
  plus the decisive check: committed-sequence equality, the
  cross-process form of the report's Attachment-3 determinism test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import EXEC, UNDO
from repro.obs.recorder import RunRecording

__all__ = [
    "RollbackChain",
    "rollback_chains",
    "chain_summary",
    "rollback_attribution",
    "diff_recordings",
]


@dataclass(frozen=True)
class RollbackChain:
    """One rollback episode reconstructed from the trace stream."""

    #: Index of the chain's first UNDO in the recording's trace.
    start_index: int
    #: Events undone in this episode.
    length: int
    #: Distinct LPs whose events were undone (spread > 1 means sibling
    #: LPs paid for the straggler — false-rollback territory).
    lp_spread: int
    #: Timestamp of the earliest undone event (the rollback's depth).
    min_ts: float
    #: Timestamp of the latest undone event.
    max_ts: float
    #: LP that re-executed first after the chain (the straggler's
    #: target), or -1 when the trace ends inside the chain.
    resumed_lp: int
    #: Origin LP of that first re-executed event — the sender whose
    #: straggler/anti-message triggered the rollback, i.e. the chain's
    #: causal *source* (-1 when the trace ends inside the chain).
    trigger_lp: int = -1


def rollback_chains(rec: RunRecording) -> list[RollbackChain]:
    """Maximal runs of consecutive UNDO records, in recording order."""
    chains: list[RollbackChain] = []
    records = rec.records
    i, n = 0, len(records)
    while i < n:
        if records[i].action != UNDO:
            i += 1
            continue
        j = i
        lps = set()
        lo, hi = float("inf"), float("-inf")
        while j < n and records[j].action == UNDO:
            r = records[j]
            lps.add(r.dst)
            lo = min(lo, r.ts)
            hi = max(hi, r.ts)
            j += 1
        resumed = -1
        trigger = -1
        for k in range(j, n):
            if records[k].action == EXEC:
                resumed = records[k].dst
                trigger = records[k].origin
                break
        chains.append(
            RollbackChain(
                start_index=i,
                length=j - i,
                lp_spread=len(lps),
                min_ts=lo,
                max_ts=hi,
                resumed_lp=resumed,
                trigger_lp=trigger,
            )
        )
        i = j
    return chains


def chain_summary(chains: list[RollbackChain]) -> dict:
    """Aggregate chain statistics for the ``thrash`` report."""
    if not chains:
        return {
            "chains": 0,
            "events_undone": 0,
            "max_length": 0,
            "mean_length": 0.0,
            "multi_lp_chains": 0,
        }
    lengths = [c.length for c in chains]
    return {
        "chains": len(chains),
        "events_undone": sum(lengths),
        "max_length": max(lengths),
        "mean_length": sum(lengths) / len(lengths),
        "multi_lp_chains": sum(1 for c in chains if c.lp_spread > 1),
    }


def rollback_attribution(rec: RunRecording) -> dict:
    """Attribute rollback chains to the LPs and links that caused them.

    Each chain's cause is the first event re-executed after it: its
    origin LP sent the straggler (the *source*), its destination is the
    LP that rolled back first (the *victim*), and ``source→victim`` is
    the offending link.  Alongside the per-source/per-link tables this
    reports wasted-work accounting (UNDO records per EXEC record) and
    the undo-multiplicity histogram — events undone two or more times
    are the signature of an anti-message storm (rollbacks re-triggering
    rollbacks), which per-chain stats alone cannot distinguish from many
    independent stragglers.

    All counts cover the recording's trace window; with a bounded tracer
    that window is the most recent ``limit`` records, not the whole run.
    """
    chains = rollback_chains(rec)
    execs = undone_total = 0
    multiplicity: dict[tuple, int] = {}
    for r in rec.records:
        if r.action == EXEC:
            execs += 1
        elif r.action == UNDO:
            undone_total += 1
            ident = (r.ts, r.origin, r.seq, r.dst)
            multiplicity[ident] = multiplicity.get(ident, 0) + 1

    by_source: dict[int, list[int]] = {}
    by_link: dict[tuple[int, int], list[int]] = {}
    unattributed = 0
    for c in chains:
        if c.trigger_lp < 0:
            unattributed += 1
            continue
        src = by_source.setdefault(c.trigger_lp, [0, 0])
        src[0] += 1
        src[1] += c.length
        link = by_link.setdefault((c.trigger_lp, c.resumed_lp), [0, 0])
        link[0] += 1
        link[1] += c.length

    histogram: dict[int, int] = {}
    for times in multiplicity.values():
        histogram[times] = histogram.get(times, 0) + 1
    storm_events = sum(n for times, n in histogram.items() if times > 1)
    return {
        "chains": len(chains),
        "events_undone": undone_total,
        "exec_records": execs,
        "wasted_fraction": undone_total / execs if execs else 0.0,
        "by_source": [
            {"lp": lp, "chains": c, "events_undone": u}
            for lp, (c, u) in sorted(
                by_source.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
        ],
        "by_link": [
            {"source": s, "victim": v, "chains": c, "events_undone": u}
            for (s, v), (c, u) in sorted(
                by_link.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
        ],
        "undo_multiplicity": {
            times: histogram[times] for times in sorted(histogram)
        },
        "storm_events": storm_events,
        "unattributed_chains": unattributed,
    }


#: Stats fields expected to differ between engines even on equivalent
#: runs (engine identity, engine-internal work accounting and derived
#: timing); the diff reports them informationally but they never decide
#: equivalence.
ENGINE_DEPENDENT_FIELDS = frozenset(
    {
        "engine",
        "n_pes",
        "n_kps",
        "processed",
        "events_rolled_back",
        "rollbacks",
        "false_rollback_events",
        "stragglers",
        "cancelled_direct",
        "cancelled_via_rollback",
        "throttle_adjustments",
        "throttle_final_factor",
        "local_sends",
        "remote_sends",
        "gvt_rounds",
        "fossil_collected",
        "pool_hits",
        "pool_allocs",
        "pool_hit_rate",
        "peak_pending",
        "peak_processed",
        "makespan_seconds",
        "event_rate",
        "total_busy_seconds",
        # Fault-injection accounting is engine-side work: transport
        # perturbation counters and stall rounds vary with scheduling and
        # exist only on the parallel engines, while committed results —
        # the invariant — stay identical (see repro.faults).
        "transport_dropped",
        "transport_duplicated",
        "transport_delayed",
        "pe_stall_rounds",
        # Process-mode plumbing: how many OS workers ran and what crossed
        # the shared-memory rings is an execution-mode property, never a
        # result (sequential == process-mode committed sequences is the
        # invariant tests/test_mp_determinism.py pins).
        "procs",
        "ring_messages",
        "ring_bytes",
        "ring_full_stalls",
        "gvt_token_rounds",
    }
)


def diff_recordings(a: RunRecording, b: RunRecording) -> dict:
    """Compare two recordings; returns a structured report.

    The result dict has:

    * ``fields`` — ``{name: (value_a, value_b)}`` for every stats field
      present in either recording, values ``None`` when absent;
    * ``field_mismatches`` — the subset of names with differing values,
      split into ``invariant`` (fields equivalent runs must agree on,
      e.g. ``committed``) and ``engine_dependent`` (informational);
    * ``sequences`` — ``"equal"``, ``"different"`` or ``"unavailable"``
      (one side has no trace records);
    * ``first_divergence`` — when sequences differ, the first index and
      the two tuples at it (``None`` otherwise);
    * ``equivalent`` — the verdict: committed sequences equal when
      available, otherwise all invariant fields equal.
    """
    sa = a.stats or {}
    sb = b.stats or {}
    fields: dict[str, tuple] = {}
    for name in sorted(set(sa) | set(sb)):
        fields[name] = (sa.get(name), sb.get(name))
    invariant, engine_dep = [], []
    for name, (va, vb) in fields.items():
        if va == vb:
            continue
        (engine_dep if name in ENGINE_DEPENDENT_FIELDS else invariant).append(name)

    sequences = "unavailable"
    first_divergence = None
    seq_a = seq_b = None
    try:
        seq_a = a.committed_sequence()
        seq_b = b.committed_sequence()
    except ValueError:
        pass
    if seq_a is not None and seq_b is not None:
        if seq_a == seq_b:
            sequences = "equal"
        else:
            sequences = "different"
            limit = min(len(seq_a), len(seq_b))
            idx = next(
                (i for i in range(limit) if seq_a[i] != seq_b[i]), limit
            )
            first_divergence = (
                idx,
                seq_a[idx] if idx < len(seq_a) else None,
                seq_b[idx] if idx < len(seq_b) else None,
            )

    if sequences != "unavailable":
        equivalent = sequences == "equal"
    else:
        equivalent = not invariant and bool(fields)
    return {
        "fields": fields,
        "field_mismatches": {"invariant": invariant, "engine_dependent": engine_dep},
        "sequences": sequences,
        "first_divergence": first_divergence,
        "equivalent": equivalent,
    }
