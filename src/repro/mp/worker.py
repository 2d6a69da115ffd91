"""Worker process harness: bootstrap, telemetry shims, result marshaling.

``worker_main`` is the target of every forked worker process.  It builds
the worker's :class:`~repro.mp.kernel.MPWorkerKernel` (process mode
always has two workers or more), attaches worker-local telemetry, runs,
and ships one result dict back over the spec's pipe.

The result pipe is the *only* pickled channel, and it carries end-of-run
aggregates exactly once — events never travel it.  Per-LP model state
crosses as ``Model.mp_export_lp`` blobs, kernel counters as the worker's
RunStats, committed events as plain key tuples, telemetry as the
samples' own dict forms.

Checkpoints are per-worker shards: ``<dir>/shard_<i>`` with the parent
marker extended by ``{"shard": i, "procs": P}``.  The wave protocol
makes every worker hit checkpoint boundaries at the same wave numbers,
so shard sequence numbers advance in lockstep; a kill can leave at most
a one-snapshot skew, which resume absorbs by loading the highest
sequence number present in *every* shard directory.
"""

from __future__ import annotations

import signal
import traceback
from pathlib import Path

from repro.ckpt.checkpoint import Checkpointer
from repro.ckpt.snapshot import SNAPSHOT_SUFFIX, list_snapshots, read_snapshot
from repro.errors import HealthIntervention, SnapshotError
from repro.health.watchdog import Watchdog
from repro.mp.kernel import MPWorkerKernel
from repro.mp.transport import RingTransport
from repro.obs.metrics import MetricsRecorder
from repro.obs.spans import SpanTracer

__all__ = ["worker_main", "shard_dir", "common_resume_seq"]


class _CommitLog:
    """Tracer shim: committed key tuples plus exec/undo tallies.

    A full Tracer would retain every EXEC record in worker memory; the
    parent only needs the committed sequence (the schedule-invariant)
    and the lifecycle counts, so that is all this keeps.
    """

    __slots__ = ("commits", "exec_count", "undo_count")

    def __init__(self) -> None:
        self.commits: list[tuple] = []
        self.exec_count = 0
        self.undo_count = 0

    def on_exec(self, event) -> None:
        self.exec_count += 1

    def on_undo(self, event) -> None:
        self.undo_count += 1

    def on_commit(self, event) -> None:
        key = event.key
        self.commits.append((key.ts, key.origin, key.seq, event.dst, event.kind))


def shard_dir(parent_dir, index: int) -> Path:
    """The snapshot directory of one worker's checkpoint shard."""
    return Path(parent_dir) / f"shard_{index}"


def common_resume_seq(shard_dirs) -> int | None:
    """Highest snapshot sequence present in *every* shard directory.

    A kill between two workers' final writes leaves the shard set skewed
    by one sequence number; resuming from the common prefix keeps the
    restored cut consistent (all shards captured at the same wave).
    """
    common: set[int] | None = None
    for directory in shard_dirs:
        seqs = set()
        for path in list_snapshots(directory):
            stem = path.name[: -len(SNAPSHOT_SUFFIX)]
            try:
                seqs.add(int(stem.rsplit("_", 1)[-1]))
            except ValueError:
                continue
        common = seqs if common is None else common & seqs
    if not common:
        return None
    return max(common)


def _load_shard(ckpt: Checkpointer, seq: int) -> None:
    """Arm ``ckpt`` to restore one specific shard snapshot on bind."""
    path = ckpt.dir / f"ckpt_{seq:06d}{SNAPSHOT_SUFFIX}"
    payload = read_snapshot(path)
    marker = payload.get("marker", {})
    if marker != ckpt.marker:
        raise SnapshotError(
            f"{path}: shard marker mismatch (snapshot {marker!r} vs "
            f"run {ckpt.marker!r}); refusing to resume into a "
            "differently-configured run"
        )
    meta = payload.get("ckpt", {})
    ckpt.boundaries = meta.get("boundaries", 0)
    ckpt.seq = meta.get("seq", 0) + 1
    ckpt._restore_payload = payload


def _build_kernel(spec):
    cfg = spec.config
    transport = RingTransport(
        spec.index,
        spec.procs,
        cfg.n_pes // spec.procs,
        spec.codec,
        spec.out_rings,
        spec.in_rings,
    )
    return MPWorkerKernel(
        spec.model,
        cfg,
        worker_index=spec.index,
        transport=transport,
        ctl_in=spec.ctl_in,
        ctl_out=spec.ctl_out,
    )


def _run_worker(spec) -> dict:
    model = spec.model
    cfg = spec.config
    kernel = _build_kernel(spec)

    tracer = _CommitLog() if spec.want_trace else None
    if tracer is not None:
        kernel.attach_tracer(tracer)
    metrics = MetricsRecorder() if spec.want_metrics else None
    if metrics is not None:
        kernel.attach_metrics(metrics)
    spans = SpanTracer() if spec.want_spans else None
    if spans is not None:
        kernel.attach_spans(spans)
    health = (
        Watchdog(spec.health_config) if spec.health_config is not None else None
    )
    if health is not None:
        kernel.attach_health(health)

    ckpt = None
    if spec.ckpt_dir is not None:
        marker = dict(spec.ckpt_marker)
        marker["shard"] = spec.index
        marker["procs"] = spec.procs
        ckpt = Checkpointer(
            shard_dir(spec.ckpt_dir, spec.index),
            every=spec.ckpt_every,
            marker=marker,
            # Only worker 0 touches the liveness heartbeat — one file,
            # one writer; the waves keep all workers in lockstep anyway.
            heartbeat=spec.ckpt_heartbeat if spec.index == 0 else None,
        )
        if spec.resume:
            seq = common_resume_seq(
                [shard_dir(spec.ckpt_dir, i) for i in range(spec.procs)]
            )
            if seq is None:
                raise SnapshotError(
                    f"no snapshot sequence common to all {spec.procs} "
                    f"checkpoint shards under {spec.ckpt_dir}; nothing to "
                    "resume from"
                )
            _load_shard(ckpt, seq)
        kernel.attach_checkpointer(ckpt)

    if kernel._resume is not None:
        # Shard snapshots persist the worker's commit log (committed
        # sequences must survive a kill+resume bit-identically); pop it
        # back out before the kernel consumes the loop dict.
        restored = kernel._resume.pop("mp_commits", None)
        if tracer is not None and restored:
            tracer.commits = list(restored)
        if metrics is not None:
            # Prime the recorder's cumulative baselines from the restored
            # counters, then discard the priming sample: the worker's
            # post-resume time series starts at the snapshot, not at 0.
            kernel._sample_metrics(metrics, min(kernel.gvt, cfg.end_time))
            metrics.samples.clear()
            metrics.n_samples = 0

    # Interrupts: never raise mid-round (the flag rides the next GVT wave,
    # at which every worker writes its final shard and raises
    # KeyboardInterrupt, so all shards stay consistent).
    def _on_sigint(signum, frame):
        kernel.intr = True

    signal.signal(signal.SIGINT, _on_sigint)

    if tracer is not None and ckpt is not None:
        kernel.loop_extra = lambda: {"mp_commits": list(tracer.commits)}

    interrupted = False
    result = None
    try:
        result = kernel.run()
    except KeyboardInterrupt:
        interrupted = True

    payload = {
        "index": spec.index,
        "interrupted": interrupted,
        "run": None if result is None else result.run,
        "lp_blobs": {},
        "model_shard": None,
        "commits": None if tracer is None else tracer.commits,
        "exec_count": 0 if tracer is None else tracer.exec_count,
        "undo_count": 0 if tracer is None else tracer.undo_count,
        "metrics": (
            None if metrics is None else [s.as_dict() for s in metrics.samples]
        ),
        "spans": None if spans is None else [s.as_dict() for s in spans.spans()],
        "span_totals": None if spans is None else dict(spans.totals),
        "health": None if health is None else [e.to_dict() for e in health.events],
        "ckpt_written": 0 if ckpt is None else ckpt.written,
    }
    if not interrupted:
        far = kernel._far_by_lp
        payload["lp_blobs"] = {
            lp.id: model.mp_export_lp(lp) for lp in kernel.lps if not far[lp.id]
        }
        payload["model_shard"] = model.mp_export_shard()
    return payload


def worker_main(spec) -> None:
    """Forked-child entry point: run, marshal, send exactly one dict."""
    conn = spec.conn
    try:
        payload = _run_worker(spec)
    except HealthIntervention as exc:
        # The watchdog escalated past in-run remediation; the parent
        # re-raises a HealthIntervention with this message so callers see
        # the same exception type as an inline run.
        payload = {"index": spec.index, "health_abort": str(exc)}
    except BaseException:
        payload = {"index": spec.index, "error": traceback.format_exc()}
    try:
        conn.send(payload)
    finally:
        conn.close()
