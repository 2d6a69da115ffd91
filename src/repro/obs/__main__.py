"""``python -m repro.obs`` — forensics over recorded runs, no rerun needed.

Subcommands::

    python -m repro.obs summary  RUN.jsonl          # header + full RunStats
    python -m repro.obs timeline RUN.jsonl          # ASCII metric sparklines
    python -m repro.obs thrash   RUN.jsonl          # rollback hot spots/chains
    python -m repro.obs critpath RUN.jsonl          # causal critical path
    python -m repro.obs faults   RUN.jsonl          # fault-injection forensics
    python -m repro.obs watch    RUN.jsonl          # live terminal dashboard
    python -m repro.obs diff     A.jsonl B.jsonl    # determinism comparison

``diff`` exits 0 when the two recordings are equivalent (committed
sequences equal — the report's Attachment-3 check, across processes) and
1 when they diverge; engine-dependent stat differences are reported but
do not fail the diff.  ``critpath --json`` output is a pure function of
the committed trace, so two processes analyzing equivalent recordings
emit byte-identical reports.  ``watch`` tails a recording while the run
writes it; ``watch --once`` renders a single headless frame for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.asciichart import plot
from repro.core.trace import COMMIT, EXEC, UNDO
from repro.obs.critpath import critical_path
from repro.obs.forensics import (
    chain_summary,
    diff_recordings,
    rollback_attribution,
    rollback_chains,
)
from repro.obs.recorder import RunRecording, load_recording
from repro.obs.watch import watch

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and compare recorded simulation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="header, trace counts and full RunStats")
    p.add_argument("file", type=Path)

    p = sub.add_parser("timeline", help="GVT-interval metric sparklines")
    p.add_argument("file", type=Path)
    p.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        choices=sorted(TIMELINE_METRICS),
        help="chart only the named metric group(s); default: all with data",
    )
    p.add_argument("--height", type=int, default=8, help="chart height (rows)")
    p.add_argument("--width", type=int, default=64, help="chart width (cols)")

    p = sub.add_parser("thrash", help="rollback hot spots and chain forensics")
    p.add_argument("file", type=Path)
    p.add_argument("--top", type=int, default=10, help="rows per hot-spot table")

    p = sub.add_parser(
        "critpath",
        help="critical path, speedup bound and per-LP slack from the trace",
    )
    p.add_argument("file", type=Path)
    p.add_argument("--top", type=int, default=10, help="rows per LP table")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as deterministic JSON (sorted keys)",
    )

    p = sub.add_parser("faults", help="fault-plan timeline and fault counters")
    p.add_argument("file", type=Path)
    p.add_argument("--top", type=int, default=10, help="rows in the node table")

    p = sub.add_parser("watch", help="live dashboard over a (growing) recording")
    p.add_argument("file", type=Path)
    p.add_argument(
        "--once",
        action="store_true",
        help="render one plain frame from the file's current state and exit",
    )
    p.add_argument(
        "--interval", type=float, default=0.5, help="refresh period (seconds)"
    )
    p.add_argument("--height", type=int, default=8, help="chart height (rows)")
    p.add_argument("--width", type=int, default=60, help="chart width (cols)")

    p = sub.add_parser("diff", help="compare two recordings for equivalence")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument(
        "--strict",
        action="store_true",
        help="also fail on engine-dependent stat differences",
    )
    return parser


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def _print_kv_table(pairs: list[tuple[str, object]], indent: str = "  ") -> None:
    width = max((len(k) for k, _ in pairs), default=0)
    for key, value in pairs:
        if isinstance(value, float):
            text = f"{value:,.6g}"
        elif isinstance(value, int) and not isinstance(value, bool):
            text = f"{value:,}"
        else:
            text = str(value)
        print(f"{indent}{key:<{width}} : {text}")


#: Delta counters summed over the metric stream for the summary view.
_STREAM_COUNTERS = (
    "committed",
    "processed",
    "rolled_back",
    "rollbacks",
    "stragglers",
    "fossil_collected",
)


def cmd_summary(rec: RunRecording) -> int:
    """Print the recording's header, trace counts and final RunStats."""
    print(f"recording: {rec.path}")
    header = [(k, v) for k, v in rec.header.items() if k != "schema"]
    _print_kv_table([("schema", rec.header.get("schema"))] + header)
    print(
        f"  trace records: {len(rec.records):,} "
        f"(EXEC {rec.counts[EXEC]:,}, UNDO {rec.counts[UNDO]:,}, "
        f"COMMIT {rec.counts[COMMIT]:,}); metric samples: {len(rec.metrics):,}"
    )
    if rec.faults:
        print(f"  scheduled fault events: {len(rec.faults):,}")
    if rec.adversary:
        print(f"  adversary injections scripted: {len(rec.adversary):,}")
    if rec.health:
        by_det: dict[str, int] = {}
        for h in rec.health:
            det = h.get("detector", "?")
            by_det[det] = by_det.get(det, 0) + 1
        breakdown = ", ".join(f"{d} {n}x" for d, n in sorted(by_det.items()))
        print(f"  watchdog trips: {len(rec.health):,} ({breakdown})")
    if rec.truncated_lines:
        print(
            f"  WARNING: {rec.truncated_lines} torn trailing line tolerated "
            "(recording was cut off mid-write; totals may be incomplete)"
        )
    if rec.metrics:
        print("metric stream totals:")
        _print_kv_table(
            [
                (name, sum(getattr(s, name) for s in rec.metrics))
                for name in _STREAM_COUNTERS
            ]
        )
    if rec.spans:
        total = sum(sec for _n, sec, _sh in rec.span_breakdown().values())
        print(f"span phases ({len(rec.spans):,} spans, {total:.3f}s recorded):")
        _print_kv_table(
            [
                (phase, f"{n:,}x {sec:.4f}s ({share * 100:.1f}%)")
                for phase, (n, sec, share) in rec.span_breakdown().items()
            ]
        )
        busy = rec.span_busy_by_pe()
        if busy:
            print("exec busy by PE:")
            _print_kv_table(
                [(f"pe{pe}", f"{sec:.4f}s") for pe, sec in sorted(busy.items())]
            )
    if rec.stats is None:
        print("  no stats line (run did not finalize)")
        return 0
    reason = rec.stats.get("band_decline_reason")
    if reason:
        print(f"  sequential band program not used: {reason}")
    procs = rec.stats.get("procs", 1)
    if procs and procs > 1:
        # Process-mode run: attribute the cross-process overhead.  These
        # counters live in RunStats too, but scattered among forty other
        # keys; the ratios (bytes/frame, stall rate, frames/wave) are
        # what make "the transport is/isn't the bottleneck" readable.
        msgs = rec.stats.get("ring_messages", 0)
        ring_bytes = rec.stats.get("ring_bytes", 0)
        stalls = rec.stats.get("ring_full_stalls", 0)
        token_rounds = rec.stats.get("gvt_token_rounds", 0)
        rows = [
            ("worker processes", procs),
            ("ring frames crossed", msgs),
            ("ring bytes crossed", ring_bytes),
            ("ring full-stalls", stalls),
            ("gvt token rounds", token_rounds),
        ]
        if msgs:
            rows.append(("bytes / frame", f"{ring_bytes / msgs:.1f}"))
            rows.append(("full-stall rate", f"{stalls / msgs:.2%}"))
        if token_rounds:
            rows.append(("frames / token round", f"{msgs / token_rounds:.1f}"))
        print("multicore transport:")
        _print_kv_table(rows)
    print("run stats:")
    _print_kv_table(sorted(rec.stats.items()))
    return 0


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------
#: Chart groups: title -> list of (series name, sample attribute).
TIMELINE_METRICS = {
    "rate": [("committed/interval", "committed"), ("processed/interval", "processed")],
    "rollbacks": [
        ("rolled_back/interval", "rolled_back"),
        ("stragglers/interval", "stragglers"),
    ],
    "depth": [("pending", "pending"), ("processed_depth", "processed_depth")],
    "throttle": [("throttle factor", "throttle")],
}


def cmd_timeline(
    rec: RunRecording,
    metrics: list[str] | None,
    height: int,
    width: int,
) -> int:
    """Render the metric time series as ASCII charts over GVT."""
    samples = rec.metrics
    if not samples:
        print(
            f"{rec.path}: no metric samples; re-record with --metrics-out "
            "to enable timelines"
        )
        return 1
    xs = [s.gvt for s in samples]
    chosen = metrics if metrics else list(TIMELINE_METRICS)
    drawn = 0
    for group in chosen:
        series = {}
        for name, attr in TIMELINE_METRICS[group]:
            ys = [float(getattr(s, attr)) for s in samples]
            if any(ys) or group == "throttle":
                series[name] = list(zip(xs, ys))
        if not series:
            continue  # nothing ever moved (e.g. rollbacks on sequential)
        print(plot(series, height=height, width=width, title=f"[{group}] vs GVT"))
        print()
        drawn += 1
    if not drawn:
        print("no nonzero series to chart")
    return 0


# ----------------------------------------------------------------------
# thrash
# ----------------------------------------------------------------------
def cmd_thrash(rec: RunRecording, top: int) -> int:
    """Print rollback hot spots (per LP, per KP) and chain forensics."""
    by_lp = rec.thrash_by_lp()
    by_kp = rec.thrash_by_kp()
    if not by_lp and not by_kp:
        print(
            f"{rec.path}: no rollback activity recorded (sequential/"
            "conservative run, rollback-free run, or metrics+trace not captured)"
        )
        return 0
    if by_lp:
        total = sum(by_lp.values())
        print(f"events undone per LP (total {total:,}, {len(by_lp)} LPs):")
        rows = sorted(by_lp.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        _print_kv_table([(f"lp{lp}", n) for lp, n in rows])
    if by_kp:
        total = sum(by_kp.values())
        print(f"events rolled back per KP (total {total:,}, {len(by_kp)} KPs):")
        rows = sorted(by_kp.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        _print_kv_table([(f"kp{kp}", n) for kp, n in rows])
    chains = rollback_chains(rec)
    if chains:
        summary = chain_summary(chains)
        print(
            f"rollback chains: {summary['chains']:,} episodes, "
            f"{summary['events_undone']:,} events undone, "
            f"max length {summary['max_length']}, "
            f"mean {summary['mean_length']:.2f}, "
            f"{summary['multi_lp_chains']:,} touched multiple LPs "
            "(false-rollback spillover)"
        )
        worst = sorted(chains, key=lambda c: -c.length)[: min(top, 5)]
        for c in worst:
            print(
                f"  len {c.length:>4}  lps {c.lp_spread:>3}  "
                f"ts [{c.min_ts:.6f}, {c.max_ts:.6f}]  "
                f"resumed at lp{c.resumed_lp}"
            )
        attr = rollback_attribution(rec)
        print(
            f"rollback attribution: {attr['wasted_fraction'] * 100:.1f}% of "
            f"executed work undone ({attr['events_undone']:,} UNDO / "
            f"{attr['exec_records']:,} EXEC in window); "
            f"{attr['storm_events']:,} events undone more than once "
            "(anti-message storm signature)"
        )
        if attr["by_source"]:
            print("  chains triggered, by source LP:")
            for row in attr["by_source"][:top]:
                print(
                    f"    lp{row['lp']:<5} {row['chains']:>5} chains, "
                    f"{row['events_undone']:>7,} events undone"
                )
        if attr["by_link"]:
            print("  worst source -> victim links:")
            for row in attr["by_link"][:top]:
                print(
                    f"    lp{row['source']} -> lp{row['victim']}: "
                    f"{row['chains']} chains, "
                    f"{row['events_undone']:,} events undone"
                )
        if attr["undo_multiplicity"]:
            hist = ", ".join(
                f"{times}x: {n:,}"
                for times, n in attr["undo_multiplicity"].items()
            )
            print(f"  undo multiplicity (times undone: events): {hist}")
    return 0


# ----------------------------------------------------------------------
# critpath
# ----------------------------------------------------------------------
def cmd_critpath(rec: RunRecording, top: int, as_json: bool) -> int:
    """Critical-path report over the recording's committed sequence."""
    commits = rec.committed_sequence()
    report = critical_path(commits)
    if as_json:
        # sort_keys + fixed separators: byte-identical across processes
        # for equivalent recordings (checked in CI).
        print(json.dumps(report.as_dict(), sort_keys=True,
                         separators=(",", ":")))
        return 0
    if report.events == 0:
        print(f"{rec.path}: no committed events in the trace")
        return 1
    print(f"recording: {rec.path}")
    _print_kv_table(
        [
            ("committed events", report.events),
            ("lps", report.lps),
            ("critical path length", report.path_length),
            ("achievable speedup bound", round(report.speedup_bound, 3)),
        ]
    )
    rows = sorted(report.lp_heights.items(), key=lambda kv: (-kv[1], kv[0]))
    print(f"deepest LPs (height; slack = {report.path_length} - height):")
    _print_kv_table(
        [
            (f"lp{lp}", f"height {h:,}, slack {report.lp_slack[lp]:,}")
            for lp, h in rows[:top]
        ]
    )
    if report.path_lp_events:
        on_path = sorted(
            report.path_lp_events.items(), key=lambda kv: (-kv[1], kv[0])
        )
        share = ", ".join(f"lp{lp}: {n}" for lp, n in on_path[:top])
        print(f"witness path events per LP: {share}")
    return 0


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
#: Stats fields that carry fault-injection activity (model-side counters
#: live in model stats, which recordings do not carry; these are the
#: engine-side ones from RunStats).
_FAULT_STAT_FIELDS = (
    "transport_dropped",
    "transport_duplicated",
    "transport_delayed",
    "pe_stall_rounds",
)


def cmd_faults(rec: RunRecording, top: int) -> int:
    """Print the recorded fault-plan timeline and fault counters."""
    header_keys = [
        (k, v) for k, v in sorted(rec.header.items()) if k.startswith("fault_")
    ]
    stat_rows = []
    if rec.stats is not None:
        stat_rows = [
            (k, rec.stats[k]) for k in _FAULT_STAT_FIELDS if rec.stats.get(k)
        ]
    if not rec.faults and not header_keys and not stat_rows:
        print(f"{rec.path}: no fault activity recorded (unfaulted run)")
        return 0
    if header_keys:
        print("fault plan (header):")
        _print_kv_table(header_keys)
    if rec.faults:
        print(f"scheduled fault events ({len(rec.faults):,}):")
        by_kind: dict[str, int] = {}
        by_node: dict[int, int] = {}
        for f in rec.faults:
            by_kind[f.get("kind", "?")] = by_kind.get(f.get("kind", "?"), 0) + 1
            node = f.get("node", -1)
            by_node[node] = by_node.get(node, 0) + 1
        _print_kv_table(sorted(by_kind.items()))
        rows = sorted(by_node.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        print(f"most-faulted nodes (top {len(rows)}):")
        _print_kv_table([(f"node{n}", c) for n, c in rows])
        for f in rec.faults[: min(top, len(rec.faults))]:
            d = f.get("direction", -1)
            where = f"node {f.get('node')}" + (f" dir {d}" if d >= 0 else "")
            print(f"  step {f.get('step'):>6}  {f.get('kind'):<10} {where}")
        if len(rec.faults) > top:
            print(f"  ... {len(rec.faults) - top} more")
    if stat_rows:
        print("engine fault counters:")
        _print_kv_table(stat_rows)
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def cmd_diff(a: RunRecording, b: RunRecording, strict: bool) -> int:
    """Compare two recordings; exit 0 iff they are equivalent."""
    report = diff_recordings(a, b)
    mism = report["field_mismatches"]
    for name in mism["invariant"]:
        va, vb = report["fields"][name]
        print(f"INVARIANT DIFF  {name}: {va!r} != {vb!r}")
    for name in mism["engine_dependent"]:
        va, vb = report["fields"][name]
        print(f"engine-dependent {name}: {va!r} vs {vb!r}")
    seq = report["sequences"]
    if seq == "unavailable":
        print(
            "committed sequences: unavailable (a recording lacks trace "
            "records); falling back to invariant stats comparison"
        )
    elif seq == "equal":
        n = len(a.select(COMMIT))
        print(f"committed sequences: EQUAL ({n:,} events)")
    else:
        idx, ta, tb = report["first_divergence"]
        print(f"committed sequences: DIFFERENT at index {idx}:")
        print(f"  {a.path}: {ta}")
        print(f"  {b.path}: {tb}")
    equivalent = report["equivalent"]
    if strict and mism["engine_dependent"]:
        equivalent = False
    print("verdict:", "EQUIVALENT" if equivalent else "DIVERGENT")
    return 0 if equivalent else 1


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "diff":
            return cmd_diff(
                load_recording(args.a), load_recording(args.b), args.strict
            )
        if args.command == "watch":
            # watch tails the raw file itself (the recording may still
            # be growing); no up-front load.
            return watch(
                args.file,
                once=args.once,
                interval=args.interval,
                height=args.height,
                width=args.width,
            )
        rec = load_recording(args.file)
        if args.command == "summary":
            return cmd_summary(rec)
        if args.command == "timeline":
            return cmd_timeline(rec, args.metrics, args.height, args.width)
        if args.command == "critpath":
            return cmd_critpath(rec, args.top, args.json)
        if args.command == "faults":
            return cmd_faults(rec, args.top)
        return cmd_thrash(rec, args.top)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
