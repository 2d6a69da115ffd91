"""Per-layer metrics of one traced run, read from the recording it wrote.

The program's own span tracer (``--spans-out``) brackets each kernel phase
with wall-clock readings; its ``stats`` line carries the counts.  Spans
nest -- a rollback inside an optimism batch is inside that batch's ``exec``
span -- so this module charges every instant to the innermost span only
(*self time*).  Then the phases are disjoint and, with the set-up time and
the remainder ``kernel.untraced_s``, add up to the run's wall time.
"""

from __future__ import annotations

PHASES = ("exec", "gvt", "fossil", "rollback", "antimsg", "transport")


def self_times(spans) -> dict[str, list]:
    """``{phase: [occurrences, self seconds]}`` over recorded spans.

    A span is written when it ends, so within one process the file is in
    post-order: a span's children precede it.  A drop in end time marks
    the next worker process's spans (each has its own clock epoch).
    """
    totals: dict[str, list] = {}
    open_spans: list[tuple[float, float]] = []  # (start, inclusive seconds)
    last_end = float("-inf")
    for span in spans:
        end = span.t0 + span.dt
        if end < last_end:
            open_spans.clear()
        last_end = end
        covered = 0.0
        while open_spans and open_spans[-1][0] >= span.t0:
            covered += open_spans.pop()[1]
        open_spans.append((span.t0, span.dt))
        tot = totals.setdefault(span.phase, [0, 0.0])
        tot[0] += 1
        tot[1] += span.dt - covered
    return totals


def kernel_metrics(recording, *, traced_wall_s: float, setup_s: float) -> dict:
    """The ``kernel.*``, ``pool.*``, ``mp.*`` and ``costmodel.makespan_s``
    metrics of one loaded recording."""
    stats = recording.stats
    # Worker processes run side by side, so on P of them a phase's seconds
    # are the mean over the workers: its share of the run's wall time.
    procs = stats["procs"]
    out = {}
    phase_s = 0.0
    times = self_times(recording.spans)
    for phase in PHASES:
        count, seconds = times.get(phase, (0, 0.0))
        out[f"kernel.{phase}_s"] = seconds / procs
        out[f"kernel.{phase}_n"] = count
        phase_s += seconds / procs
    out["kernel.untraced_s"] = traced_wall_s - setup_s - phase_s
    executed = sum(s.n for s in recording.spans if s.phase == "exec")
    processed = stats["processed"]
    # Below 1 when a worker's span ring wrapped before it was shipped to
    # the parent: the phase seconds above then cover only this share.
    out["kernel.span_coverage"] = executed / processed if processed else 0.0
    out["kernel.processed"] = processed
    out["kernel.committed"] = stats["committed"]
    out["kernel.rolled_back"] = stats["events_rolled_back"]
    out["kernel.efficiency"] = stats["committed"] / processed if processed else 0.0
    for name in ("stragglers", "false_rollback_events", "cancelled_direct",
                 "lazy_reused", "peak_pending"):
        out[f"kernel.{name}"] = stats[name]
    out["pool.hit_rate"] = stats["pool_hit_rate"]
    out["mp.ring_frames"] = stats["ring_messages"]
    out["mp.ring_bytes"] = stats["ring_bytes"]
    out["mp.ring_full_stalls"] = stats["ring_full_stalls"]
    out["mp.token_rounds"] = stats["gvt_token_rounds"]
    out["mp.frames_per_token_round"] = (
        stats["ring_messages"] / stats["gvt_token_rounds"]
        if stats["gvt_token_rounds"] else 0.0
    )
    out["costmodel.makespan_s"] = stats["makespan_seconds"]
    return out
