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

One function, :func:`run_sweep`, takes the experiments in order: it asks
each for its points, runs those this sweep has not run yet (Figs 4, 6
and 8 declare Figs 3, 5 and 7's points, so a sweep of both runs them
once) and hands the results to the experiment's table.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import time
from collections import Counter

from repro.experiments import pointworker
from repro.experiments.common import PROCS_GVT_INTERVAL, SweepParams
from repro.experiments.figures import EXPERIMENTS, experiment_ids
from repro.experiments.supervisor import POINT_CHECKPOINT_EVERY, point_id

__all__ = ["main", "build_parser", "run_sweep", "sweep_spec"]


def sweep_spec(declared: dict, *, procs=None, telemetry_dir=None,
               supervised: bool = False) -> tuple[dict, bool]:
    """The spec a sweep runs for a point an experiment declared, and
    whether ``procs`` could not split it.

    Under ``procs`` a Time Warp point that does not set ``procs`` itself
    runs over that many OS worker processes at a GVT interval of
    ``PROCS_GVT_INTERVAL`` (committed results are bit-identical), unless
    ``procs`` does not divide its PE count: a PE cannot be split across
    workers, so it runs in-process.  Under ``telemetry_dir`` the point
    records its GVT-interval metrics to ``<point id>.jsonl`` there, the
    id taken before the path is added.  A supervised point snapshots
    every ``POINT_CHECKPOINT_EVERY`` boundaries.
    """
    spec = dict(declared)
    overrides = spec.get("overrides") or {}
    unsplit = False
    if spec["kind"] == "opt" and procs is not None and "procs" not in overrides:
        unsplit = spec["n_pes"] % procs != 0
        if not unsplit:
            spec["overrides"] = {
                "gvt_interval": PROCS_GVT_INTERVAL, **overrides, "procs": procs,
            }
    spec["telemetry"] = None if telemetry_dir is None else str(
        pathlib.Path(telemetry_dir) / f"{point_id(spec)}.jsonl"
    )
    if supervised:
        spec["checkpoint_every"] = POINT_CHECKPOINT_EVERY
    return spec, unsplit


def run_sweep(ids, params: SweepParams, *, supervisor=None, procs=None,
              telemetry_dir=None):
    """Yield ``(exp_id, table)`` for each experiment id, in order.

    Declares every experiment's points first (:func:`sweep_spec` of what
    it declares), then runs them serially, each point id once per sweep:
    in-process through :func:`repro.experiments.pointworker.run_spec`,
    or through ``supervisor``'s ``run_point``.  A result is kept only
    until the last experiment that declares its point has its table.  A
    table whose Time Warp points ``procs`` could not split gets a note
    naming them.
    """
    supervised = supervisor is not None
    plan = []
    for exp_id in ids:
        module = EXPERIMENTS[exp_id][1]
        plan.append((exp_id, module, {
            label: sweep_spec(spec, procs=procs, telemetry_dir=telemetry_dir,
                              supervised=supervised)
            for label, spec in module.points(params).items()
        }))
    uses = Counter(point_id(spec) for *_, specs in plan for spec, _ in specs.values())
    resolved: dict[str, dict] = {}
    for exp_id, module, specs in plan:
        results, unsplit = {}, set()
        for label, (spec, in_process) in specs.items():
            if in_process:
                unsplit.add((pointworker.point_scenario(spec).sim.cfg.n, spec["n_pes"]))
            pid = point_id(spec)
            if pid not in resolved:
                resolved[pid] = (
                    pointworker.run_spec(spec) if not supervised
                    else supervisor.run_point(spec)
                )
            results[label] = resolved[pid]
            uses[pid] -= 1
            if not uses[pid]:
                del resolved[pid]
        table = module.table(params, results)
        if unsplit:
            names = ", ".join(f"N={n} on {pes} PEs" for n, pes in sorted(unsplit))
            table.notes.append(
                f"--procs does not divide the PE count of {names}: these "
                "points ran in-process"
            )
        yield exp_id, table


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
    parser.add_argument(
        "--batch",
        type=int,
        default=16,
        help="Time Warp batch size of ABL-RC's PHOLD rows and the resilience "
        "sweep's Time Warp run (the windowed sweeps cap theirs at 2^20)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="P",
        help="run each Time Warp point over P OS processes at a GVT "
        "interval of 8 rounds, supervised --out-dir points included "
        "(committed results are bit-identical to in-process runs; points "
        "whose PE count P doesn't divide stay in-process, and their table "
        "names them)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED, help="seed of every point")
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
        help="link-failure fractions for the resilience sweep, each plan "
        "generated at the default fault seed (default: 0,0.05,0.1,0.2; an "
        "explicit plan or another seed is a scenario file: see --scenario)",
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
        "GVT-progress watchdog (60 s), three attempts and a journaled "
        "manifest (see docs/CHECKPOINT.md)",
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
        scenarios=tuple(args.scenario or ()),
    )


def _params_from_meta(doc: dict) -> SweepParams:
    """The parameters a ``meta`` record journals.  One a later tree
    dropped is ignored when the sweep left it unset, else refused."""
    fields = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc["params"].items()
    }
    known = {f.name for f in dataclasses.fields(SweepParams)}
    for name in sorted(set(fields) - known):
        value = fields.pop(name)
        if value is not None:
            raise ValueError(
                f"the sweep was launched with {name}={value!r}, which is no "
                "longer a sweep parameter; a fault plan or seed is a scenario "
                "file run by the 'scenarios' experiment (docs/FAULTS.md)"
            )
    gvt_interval = doc.get("gvt_interval", PROCS_GVT_INTERVAL)
    if gvt_interval != PROCS_GVT_INTERVAL:
        raise ValueError(
            f"the sweep was launched with --gvt-interval {gvt_interval}, "
            f"which is gone; --procs points now run at {PROCS_GVT_INTERVAL}, "
            "so its Time Warp points would be different points"
        )
    return SweepParams(**fields)


def _sweep(args) -> tuple[list[str], SweepParams, int | None]:
    """The experiment ids, parameters and process count the arguments
    declare; :class:`ValueError` says why they are refused.

    Reads a bare ``--resume``'s manifest but writes nothing, so a refused
    invocation leaves no out-dir, manifest or child process behind.
    """
    from repro.experiments.supervisor import read_meta

    if args.procs is not None and args.procs < 1:
        raise ValueError(f"--procs must be at least 1, got {args.procs}")
    if args.deadline_seconds is not None and args.deadline_seconds <= 0:
        raise ValueError(
            f"--deadline-seconds must be positive, got {args.deadline_seconds:g}"
        )
    if args.experiments:
        ids = experiment_ids() if "all" in args.experiments else args.experiments
        params, procs = _params_from_args(args), args.procs
    elif args.resume is not None:
        # Bare `--resume DIR`: replay the sweep exactly as first launched.
        meta = read_meta(args.resume)
        if meta is None:
            raise ValueError(
                f"no sweep recorded in {args.resume}/manifest.jsonl; name "
                "the experiments explicitly"
            )
        ids, params = meta["experiments"], _params_from_meta(meta)
        # Process mode is part of every Time Warp point's spec.
        procs = args.procs if args.procs is not None else meta.get("procs")
    else:
        raise ValueError("no experiments named (see --help)")
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; available: {experiment_ids()}")
    return list(ids), params, procs


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.errors import ResumeIntegrityError
    from repro.experiments.supervisor import (
        PointFailure,
        Supervisor,
        verify_resume_integrity,
    )

    try:
        # Before serving *anything* from disk, re-verify that every
        # scenario / fault-plan file journaled in the manifest still
        # hashes to what the sweep was launched against.
        n_verified = 0 if args.resume is None else verify_resume_integrity(args.resume)
        ids, params, procs = _sweep(args)
    except ResumeIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration refused: {exc}", file=sys.stderr)
        return 2
    out_dir = args.resume if args.resume is not None else args.out_dir
    if n_verified:
        print(
            f"resume integrity: re-verified {n_verified} input "
            f"file(s) against {out_dir / 'manifest.jsonl'}"
        )
    supervisor = None
    if out_dir is not None:
        supervisor = Supervisor(out_dir, resume=args.resume is not None)

    for directory in (args.csv_dir, args.telemetry_dir):
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
    if supervisor is not None:
        supervisor.journal_meta(
            experiments=ids, params=dataclasses.asdict(params), procs=procs,
        )
    from repro.ckpt import wall_deadline

    try:
        with wall_deadline(args.deadline_seconds, None) as deadline_expired:
            sweep = run_sweep(
                ids, params, supervisor=supervisor, procs=procs,
                telemetry_dir=args.telemetry_dir,
            )
            start = time.perf_counter()
            for exp_id, table in sweep:
                elapsed = time.perf_counter() - start
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
                start = time.perf_counter()
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
