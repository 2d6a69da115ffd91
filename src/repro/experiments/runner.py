"""Command-line interface: regenerate any figure of the report.

Examples
--------
Run everything at laptop scale::

    python -m repro.experiments all

One figure, bigger sweep, CSV output::

    python -m repro.experiments fig3 --sizes 8,16,24,32 --duration 200 \
        --csv-dir results/

Crash-tolerant sweep (each point in a supervised, checkpointed child
process; see docs/CHECKPOINT.md), then pick it up after a crash or ^C::

    python -m repro.experiments all --out-dir sweep/
    python -m repro.experiments --resume sweep/
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time

from repro.experiments.common import (
    SweepParams,
    set_parallelism,
    set_supervisor,
    set_telemetry_dir,
    take_in_process_points,
)
from repro.experiments.figures import EXPERIMENTS, experiment_ids, run_experiment

__all__ = ["main", "build_parser"]


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _float_tuple(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    """Build the experiment CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the report's figures from the reproduction.",
        epilog="experiments: "
        + "; ".join(f"{k} — {desc}" for k, (desc, _) in EXPERIMENTS.items()),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see below) or 'all'; may be omitted with "
        "--resume, which then replays the ids recorded in the manifest",
    )
    parser.add_argument(
        "--sizes",
        type=_int_tuple,
        default=(8, 16),
        help="network dimensions N to sweep (default: 8,16; the report "
        "goes to 256 — budget accordingly)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=100.0,
        help="simulated duration in time steps (default: 100)",
    )
    parser.add_argument(
        "--loads",
        type=_float_tuple,
        default=(0.25, 0.50, 0.75, 1.00),
        help="injector fractions for figs 3/4 (default: 0.25,0.5,0.75,1.0)",
    )
    parser.add_argument(
        "--pes",
        type=_int_tuple,
        default=(1, 2, 4),
        help="PE counts for figs 5/6 (default: 1,2,4)",
    )
    parser.add_argument(
        "--kps",
        type=_int_tuple,
        default=(4, 8, 16, 32, 64),
        help="KP counts for figs 7/8 (default: 4,8,16,32,64)",
    )
    parser.add_argument("--batch", type=int, default=16, help="optimism batch size")
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="P",
        help="run each Time Warp point over P OS processes, supervised "
        "--out-dir points included (committed results are bit-identical "
        "to in-process runs; points whose PE count P doesn't divide stay "
        "in-process, and their table names them)",
    )
    parser.add_argument(
        "--gvt-interval",
        type=int,
        default=8,
        metavar="N",
        help="GVT cadence in rounds for --procs points (default: 8; each "
        "GVT is a cross-process stop-and-drain wave)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED, help="global seed")
    parser.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent seeds per figs-3/4 data point (adds 95%% CIs)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render each table's numeric series as an ASCII chart",
    )
    parser.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        default=None,
        help="also write each table as CSV into this directory",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="record each sweep point's GVT-interval metrics to "
        "DIR/<point id>.jsonl (inspect with python -m repro.obs)",
    )
    parser.add_argument(
        "--fault-rates",
        type=_float_tuple,
        default=(0.0, 0.05, 0.10, 0.20),
        help="link-failure fractions for the resilience sweep "
        "(default: 0,0.05,0.1,0.2)",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="run the resilience experiment against this FaultPlan JSON "
        "instead of sweeping --fault-rates",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for rate-generated fault plans (default: repro.faults default)",
    )
    parser.add_argument(
        "--deadline-seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="wall-clock budget for the whole invocation; on expiry the "
        "sweep is interrupted exactly like Ctrl-C (supervised children "
        "get SIGINT and write a final snapshot) and the exit code is "
        "124 instead of 130",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="FILE",
        help="scenario JSON for the 'scenarios' experiment (repeatable); "
        "each file declares its own topology/traffic/policy/faults "
        "(see docs/SCENARIOS.md)",
    )
    sup = parser.add_argument_group(
        "supervised execution",
        "run every sweep point in a checkpointed child process with a "
        "GVT-progress watchdog, bounded retries and a journaled manifest "
        "(see docs/CHECKPOINT.md)",
    )
    sup.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="supervise the sweep; manifest, snapshots and per-point "
        "results go under DIR",
    )
    sup.add_argument(
        "--resume",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="resume a supervised sweep: completed points are served from "
        "DIR, in-flight ones restore from their latest checkpoint "
        "(implies --out-dir DIR)",
    )
    sup.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=60.0,
        metavar="SEC",
        help="SIGKILL a point whose GVT heartbeat stalls this long "
        "(default: 60)",
    )
    sup.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per point before giving up (default: 3)",
    )
    sup.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        metavar="SEC",
        help="first-retry delay; doubles per further retry (default: 0.5)",
    )
    sup.add_argument(
        "--point-checkpoint-every",
        type=int,
        default=4,
        metavar="N",
        help="snapshot cadence inside each child, in GVT/scheduler "
        "boundaries (default: 4)",
    )
    return parser


def _params_from_args(args) -> SweepParams:
    return SweepParams(
        sizes=args.sizes,
        duration=args.duration,
        loads=args.loads,
        pe_counts=args.pes,
        kp_counts=args.kps,
        batch_size=args.batch,
        replications=args.replications,
        seed=args.seed,
        fault_rates=args.fault_rates,
        fault_plan=args.fault_plan,
        fault_seed=args.fault_seed,
        scenarios=tuple(args.scenario or ()),
    )


def _params_from_meta(doc: dict) -> SweepParams:
    fields = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc["params"].items()
    }
    return SweepParams(**fields)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.experiments.supervisor import (
        PointFailure,
        Supervisor,
        SupervisorConfig,
    )

    out_dir = args.resume if args.resume is not None else args.out_dir
    resuming = args.resume is not None
    supervisor = None
    if out_dir is not None:
        supervisor = Supervisor(
            SupervisorConfig(
                out_dir=out_dir,
                heartbeat_timeout=args.heartbeat_timeout,
                max_retries=args.max_retries,
                backoff_base=args.backoff_base,
                checkpoint_every=args.point_checkpoint_every,
                resume=resuming,
            )
        )

    if resuming:
        # Before serving *anything* from disk, re-verify that every
        # scenario / fault-plan file journaled in the manifest still
        # hashes to what the sweep was launched against.
        from repro.errors import ResumeIntegrityError

        try:
            n_verified = supervisor.verify_resume_integrity()
        except ResumeIntegrityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            supervisor.close()
            return 2
        if n_verified:
            print(
                f"resume integrity: re-verified {n_verified} input "
                f"file(s) against {supervisor.manifest_path}"
            )

    if resuming and not args.experiments:
        # Bare `--resume DIR`: replay the sweep exactly as first launched.
        meta = supervisor.read_meta()
        if meta is None:
            print(
                f"error: no sweep recorded in {out_dir}/manifest.jsonl; "
                "name the experiments explicitly",
                file=sys.stderr,
            )
            return 2
        ids = meta["experiments"]
        params = _params_from_meta(meta)
        if args.procs is None:
            # Process mode is part of every Time Warp point's spec.
            args.procs = meta.get("procs")
            args.gvt_interval = meta.get("gvt_interval", args.gvt_interval)
    elif not args.experiments:
        print("error: no experiments named (see --help)", file=sys.stderr)
        return 2
    else:
        ids = experiment_ids() if "all" in args.experiments else args.experiments
        params = _params_from_args(args)
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {experiment_ids()}")
        return 2
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
    set_telemetry_dir(args.telemetry_dir)
    if args.procs is not None and args.procs < 1:
        print("error: --procs must be >= 1", file=sys.stderr)
        return 2
    set_parallelism(args.procs, args.gvt_interval)
    if supervisor is not None:
        supervisor.journal_meta(
            experiments=list(ids), params=dataclasses.asdict(params),
            procs=args.procs, gvt_interval=args.gvt_interval,
        )
    set_supervisor(supervisor)
    from repro.ckpt import wall_deadline

    try:
        with wall_deadline(args.deadline_seconds, None) as deadline_expired:
            for exp_id in ids:
                start = time.perf_counter()
                table = run_experiment(exp_id, params)
                elapsed = time.perf_counter() - start
                note = take_in_process_points()
                if note is not None:
                    table.notes.append(note)
                print(table.to_text())
                if args.plot:
                    chart = chart_from_table(table)
                    if chart:
                        print()
                        print(chart)
                print(f"[{exp_id} regenerated in {elapsed:.1f}s]\n")
                if args.csv_dir is not None:
                    out = args.csv_dir / f"{exp_id}.csv"
                    out.write_text(table.to_csv())
                    print(f"wrote {out}")
    except KeyboardInterrupt:
        hint = (
            f"; pick the sweep back up with --resume {out_dir}"
            if supervisor is not None
            else ""
        )
        if deadline_expired():
            print(
                f"\ndeadline of {args.deadline_seconds:g}s reached{hint}",
                file=sys.stderr,
            )
            return 124
        print(f"\ninterrupted{hint}", file=sys.stderr)
        return 130
    except PointFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_supervisor(None)
        set_parallelism(None)
        if supervisor is not None:
            supervisor.close()
    return 0


def chart_from_table(table) -> str | None:
    """Render a table's numeric series against its first column, if any.

    Returns ``None`` for tables that don't have a numeric x-axis plus at
    least one numeric series over two or more rows (e.g. the determinism
    matrix), so callers can skip plotting gracefully.
    """
    from repro.analysis.asciichart import plot

    if len(table.rows) < 2:
        return None
    xs = [row[0] for row in table.rows]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in xs):
        return None
    series = {}
    for idx, name in enumerate(table.columns):
        if idx == 0:
            continue
        pts = []
        for row in table.rows:
            v = row[idx]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                break
            pts.append((float(row[0]), float(v)))
        else:
            if len({x for x, _ in pts}) >= 2:
                series[str(name)] = pts
    if not series:
        return None
    return plot(series, title=table.title)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
