"""Parent-side orchestration of a multiprocess Time Warp run.

:func:`run_multiprocess` is the process-mode twin of
:func:`repro.core.optimistic.run_optimistic` — same signature, same
RunResult — reached through the same entry point whenever
``EngineConfig.procs`` is 2 or more.

Topology: the parent creates every ring *before* forking — one data
ring per ordered worker pair, one small control ring per edge of the GVT
token ring, each an anonymous shared mapping, plus one result pipe per
worker — then forks ``procs`` workers with plain ``fork`` (children
inherit the mappings; no pickling, no names, nothing to unlink
afterwards).  Each worker runs its PE slice of the model; the parent
only monitors liveness, forwards interrupts, and merges results.

Nothing is compiled after fork: the workers' code is imported before
the first fork — the model imports its handler table, this module the
worker harness, and the hooks the run asks for are already loaded
because the parent holds them (a checkpointed run also loads the
snapshot code here) — so no child pays the compile cost again.

The parent holds the *pristine* model: workers fork from it before any
LP is built, so every worker's copy-on-write population starts
identical, and the parent builds its own population only after the
forks — that population receives the workers' exported per-LP state and
is what ``collect_stats`` finally runs over.

Interrupt story: SIGINT (terminal or forwarded) reaches the workers,
whose handlers set a flag that rides the next GVT wave; every worker
writes a final checkpoint shard at the same wave and reports
``interrupted``, after which the parent re-raises KeyboardInterrupt —
callers see exactly the inline engine's behaviour.  A worker that dies
without reporting gets its siblings interrupted, then killed, and the
run fails loudly with the death noted.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as conn_wait

from repro.core.executor import Executor
from repro.core.result import RunResult
from repro.core.stats import RunStats
from repro.core.trace import EXEC, UNDO
from repro.errors import ConfigurationError, HealthIntervention
from repro.mp.codec import EventCodec
from repro.mp.ring import DEFAULT_RING_BYTES, SpscRing
from repro.mp.worker import worker_main
from repro.vt.time import EventKey

__all__ = ["run_multiprocess"]

#: Control rings carry one token (~30 bytes/worker) or RESULT at a time.
CTL_RING_BYTES = 1 << 16

#: Grace period between SIGINT and SIGKILL during failure teardown.
_KILL_GRACE_SECONDS = 5.0


class _WorkerSpec:
    """Everything one worker inherits through fork (never pickled)."""

    __slots__ = (
        "index", "procs", "model", "config", "codec",
        "out_rings", "in_rings", "ctl_in", "ctl_out", "conn",
        "want_trace", "want_metrics", "want_spans", "health_config",
        "checkpointer",
    )


class _EventStub:
    """Minimal event-shaped object for tracer commit replay."""

    __slots__ = ("key", "dst", "kind")


def _forward_sigint(children) -> None:
    for proc in children:
        if proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGINT)
            except (ProcessLookupError, OSError):
                pass


def _kill_children(children) -> None:
    """Failure teardown: SIGINT, a grace period, then SIGKILL."""
    _forward_sigint(children)
    deadline = time.monotonic() + _KILL_GRACE_SECONDS
    for proc in children:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in children:
        if proc.is_alive():
            proc.kill()
            proc.join()


def _merge_run_stats(parts: list[RunStats], config) -> RunStats:
    """Fold per-worker RunStats into one run-level view.

    Counters sum; the virtual makespan is the slowest worker's (they ran
    concurrently); GVT rounds are lockstep so the max is the shared wave
    count; queue peaks sum (each worker sampled its own slice — an upper
    bound on the true global instantaneous peak).
    """
    out = RunStats(engine="optimistic")
    out.n_pes = config.n_pes
    out.n_kps = config.n_kps
    out.procs = config.procs
    for field in (
        "committed", "processed", "events_rolled_back", "rollbacks",
        "false_rollback_events", "stragglers", "cancelled_direct",
        "cancelled_via_rollback", "throttle_adjustments",
        "local_sends", "remote_sends", "fossil_collected",
        "pool_hits", "pool_allocs", "peak_pending", "peak_processed",
        "total_busy_seconds", "ring_messages", "ring_bytes",
        "ring_full_stalls",
    ):
        setattr(out, field, sum(getattr(p, field) for p in parts))
    out.gvt_rounds = max(p.gvt_rounds for p in parts)
    out.gvt_token_rounds = max(p.gvt_token_rounds for p in parts)
    out.makespan_seconds = max(p.makespan_seconds for p in parts)
    out.throttle_final_factor = min(p.throttle_final_factor for p in parts)
    busy = [0.0] * config.n_pes
    for p in parts:
        for i, seconds in enumerate(p.per_pe_busy_seconds):
            busy[i] += seconds
    out.per_pe_busy_seconds = busy
    out.event_rate = (
        out.committed / out.makespan_seconds if out.makespan_seconds else 0.0
    )
    return out


def _replay_commits(tracer, parts) -> None:
    """Feed the union of worker commit logs to the parent tracer.

    Replayed in global key order — the canonical order of a committed
    sequence (per-worker logs are each in local commit order; schedule
    invariance makes the sorted union the sequential oracle's sequence).
    """
    merged: list[tuple] = []
    for part in parts:
        if part["commits"]:
            merged.extend(part["commits"])
    merged.sort()
    stub = _EventStub()
    on_commit = tracer.on_commit
    for ts, origin, seq, dst, kind in merged:
        stub.key = EventKey(ts, origin, seq)
        stub.dst = dst
        stub.kind = kind
        on_commit(stub)
    counts = getattr(tracer, "counts", None)
    if counts is not None:
        counts[EXEC] += sum(p["exec_count"] for p in parts)
        counts[UNDO] += sum(p["undo_count"] for p in parts)


_SAMPLE_SUM_FIELDS = (
    "committed", "processed", "rolled_back", "rollbacks", "stragglers",
    "fossil_collected", "pending", "processed_depth",
)


def _merge_metrics(recorder, parts) -> None:
    """Merge per-worker wave samples into the parent recorder.

    The waves are global barriers, so sample *j* of every worker
    describes the same GVT interval: counters sum, the per-KP delta maps
    are disjoint (each KP is owned by exactly one worker) and union
    cleanly.  An interrupted worker may be one sample short; the merged
    series stops at the shortest log.
    """
    from repro.obs.metrics import MetricSample

    lists = [p["metrics"] for p in parts if p["metrics"] is not None]
    if not lists:
        return
    n = min(len(rows) for rows in lists)
    for j in range(n):
        rows = [rows_[j] for rows_ in lists]
        merged = {"round": recorder.n_samples}
        merged["gvt"] = max(r["gvt"] for r in rows)
        for field in _SAMPLE_SUM_FIELDS:
            merged[field] = sum(r[field] for r in rows)
        merged["throttle"] = min(r["throttle"] for r in rows)
        merged["pool_hit_rate"] = max(r["pool_hit_rate"] for r in rows)
        kp: dict = {}
        for r in rows:
            kp.update(r.get("kp_rolled_back", {}))
        merged["kp_rolled_back"] = kp
        sample = MetricSample.from_dict(merged)
        recorder.n_samples += 1
        if recorder.sink is not None:
            recorder.sink.write_metric(sample)
        if recorder.keep:
            recorder.samples.append(sample)


def _merge_spans(tracer, parts) -> None:
    """Ingest worker span windows; fold over-window residue into totals.

    Worker ``t0`` values are relative to each worker's own epoch (see
    :meth:`SpanTracer.ingest`); phase totals stay exact even when a
    worker's ring buffer wrapped, via the shipped totals.
    """
    from repro.obs.spans import Span

    for part in parts:
        if part["spans"] is None:
            continue
        window = [Span.from_dict(d) for d in part["spans"]]
        for span in window:
            tracer.ingest(span)
        totals = part["span_totals"] or {}
        window_count: dict[str, list] = {}
        for span in window:
            agg = window_count.setdefault(span.phase, [0, 0.0])
            agg[0] += 1
            agg[1] += span.dt
        for phase, (count, seconds) in totals.items():
            seen = window_count.get(phase, (0, 0.0))
            extra = count - seen[0]
            if extra > 0:
                tot = tracer.totals[phase]
                tot[0] += extra
                tot[1] += seconds - seen[1]
                tracer.n_spans += extra
                tracer.dropped += extra


def run_multiprocess(
    model,
    config,
    *,
    tracer=None,
    metrics=None,
    spans=None,
    faults=None,
    checkpointer=None,
    health=None,
) -> RunResult:
    """Run ``model`` across ``config.procs`` worker processes."""
    procs = config.procs
    if faults is not None:
        raise ConfigurationError(
            "engine fault injection (transport/PE-stall faults) is not "
            "supported in process mode — the fault driver wraps one "
            "in-process transport; model-level fault plans work unchanged"
        )
    if "fork" not in get_all_start_methods():
        raise ConfigurationError(
            "process mode needs the 'fork' start method (workers inherit "
            "the shared-memory rings); this platform does not provide it"
        )
    codec = EventCodec(model.mp_event_schema())

    ctx = get_context("fork")
    data_rings = {
        (src, dst): SpscRing(DEFAULT_RING_BYTES)
        for src in range(procs)
        for dst in range(procs)
        if src != dst
    }
    ctl_rings = [SpscRing(CTL_RING_BYTES) for _ in range(procs)]

    shards = [None] * procs
    if checkpointer is not None:
        # The workers write (and on resume graft) the shards: load that
        # code once, here, rather than compile it in every child.  A
        # resume's cut was found and checked before this function ran.
        import repro.ckpt.snapshot  # noqa: F401
        import repro.ckpt.state  # noqa: F401

        manifest = {
            "format": "mp-manifest",
            "procs": procs,
            "shards": [f"shard_{i}" for i in range(procs)],
            "marker": checkpointer.marker,
        }
        checkpointer.dir.mkdir(parents=True, exist_ok=True)
        (checkpointer.dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n"
        )
        shards = checkpointer.shards(procs)

    specs = []
    for i in range(procs):
        spec = _WorkerSpec()
        spec.index = i
        spec.procs = procs
        spec.model = model
        spec.config = config
        spec.codec = codec
        spec.out_rings = {
            d: data_rings[(i, d)] for d in range(procs) if d != i
        }
        spec.in_rings = [
            (s, data_rings[(s, i)]) for s in range(procs) if s != i
        ]
        # Token ring topology: worker i consumes ctl ring i and produces
        # into ctl ring (i+1) % procs.
        spec.ctl_in = ctl_rings[i]
        spec.ctl_out = ctl_rings[(i + 1) % procs]
        spec.want_trace = tracer is not None
        spec.want_metrics = metrics is not None
        spec.want_spans = spans is not None
        spec.health_config = health.cfg if health is not None else None
        spec.checkpointer = shards[i]
        specs.append(spec)

    # Fork, wait and merge with the collector paused and the heap frozen
    # (CPython's fork recipe): the workers inherit a disabled collector,
    # so none of them walks, or copies on write, the parent's objects.
    with Executor._collector_paused():
        children = []
        parent_conns = []
        results: dict[int, dict] = {}
        died: list[int] = []
        try:
            # Pipe creation, fork and parent-side send-end close interleave
            # per worker: a pipe created before a sibling's fork would leave
            # its send end open inside that sibling, and a killed worker's
            # pipe would then never reach EOF while any sibling lived.
            for spec in specs:
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                spec.conn = send_conn
                proc = ctx.Process(
                    target=worker_main, args=(spec,), name=f"repro-mp-{spec.index}"
                )
                proc.start()
                send_conn.close()
                spec.conn = None
                parent_conns.append(recv_conn)
                children.append(proc)

            index_of = {conn: i for i, conn in enumerate(parent_conns)}
            pending = set(parent_conns)
            forwarded = False
            while pending:
                if (
                    checkpointer is not None
                    and checkpointer.interrupted
                    and not forwarded
                ):
                    # The CLI's deferred-interrupt (or deadline) handler set
                    # the parent flag; relay it to the workers, who turn it
                    # into a coordinated final-shard wave.
                    checkpointer.interrupted = False
                    _forward_sigint(children)
                    forwarded = True
                try:
                    ready = conn_wait(list(pending), timeout=0.2)
                except KeyboardInterrupt:
                    _forward_sigint(children)
                    forwarded = True
                    continue
                failed = False
                for conn in ready:
                    try:
                        payload = conn.recv()
                    except (EOFError, OSError):
                        died.append(index_of[conn])
                        pending.discard(conn)
                        continue
                    except KeyboardInterrupt:
                        _forward_sigint(children)
                        forwarded = True
                        break
                    results[payload["index"]] = payload
                    pending.discard(conn)
                    if "error" in payload or "health_abort" in payload:
                        # A worker that stopped participating in GVT waves
                        # would deadlock its siblings; stop the run now and
                        # report with whatever results already arrived.
                        failed = True
                if died or failed:
                    break
            if died:
                _kill_children(children)
                raise ConfigurationError(
                    f"worker process(es) {sorted(died)} died without reporting "
                    "a result (killed or crashed hard); partial results from "
                    f"{sorted(results)} discarded"
                )
            if pending:
                # A worker reported an error; its siblings may be stuck in a
                # wave that can no longer complete — take them down.
                _kill_children(children)
            for proc in children:
                proc.join()
        finally:
            for proc in children:
                if proc.is_alive():
                    _kill_children(children)
                    break
            for conn in parent_conns:
                try:
                    conn.close()
                except OSError:
                    pass
            for ring in (*data_rings.values(), *ctl_rings):
                ring.close()

        # A worker's own report comes first: the siblings that were taken
        # down because of it have no result, and that is not the cause.
        for i, part in sorted(results.items()):
            if "error" in part:
                raise ConfigurationError(
                    f"worker {i} failed:\n{part['error']}"
                )
        aborts = [p["health_abort"] for p in results.values() if "health_abort" in p]
        if aborts:
            # Same exception type and message as the worker's watchdog raised.
            exc = HealthIntervention.__new__(HealthIntervention)
            Exception.__init__(exc, aborts[0])
            raise exc
        for i in range(procs):
            if i not in results:
                raise ConfigurationError(f"worker {i} produced no result")

        parts = [results[i] for i in range(procs)]
        if tracer is not None:
            _replay_commits(tracer, parts)
        if metrics is not None:
            _merge_metrics(metrics, parts)
        if spans is not None:
            _merge_spans(spans, parts)
        if health is not None and health.sink is not None:
            for part in parts:
                for row in part["health"] or ():
                    health.sink.write_health(row)

        if any(p["interrupted"] for p in parts):
            raise KeyboardInterrupt

        merged = _merge_run_stats([p["run"] for p in parts], config)
        parent_lps = model.build()
        for part in parts:
            for lp_id, blob in part["lp_blobs"].items():
                model.mp_import_lp(parent_lps[lp_id], blob)
        model.mp_merge_shards([p["model_shard"] for p in parts])
        model_stats = model.collect_stats(parent_lps)
        return RunResult(model_stats=model_stats, run=merged, lps=parent_lps)
