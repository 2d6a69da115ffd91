"""``python -m repro.experiments.pointworker`` — one sweep point, isolated.

The experiment supervisor (:mod:`repro.experiments.supervisor`) executes
every sweep point through this entry so a wedged or crashed simulation
cannot take the whole sweep down.  The protocol is four paths on argv::

    python -m repro.experiments.pointworker SPEC.json RESULT.pkl HEARTBEAT CKPT_DIR

* ``SPEC.json`` — the point specification (see below).
* ``RESULT.pkl`` — where the pickled result document :func:`run_spec`
  returns goes on success (written atomically; its existence plus exit
  code 0 is the success signal).
* ``HEARTBEAT`` — file the run's checkpointer touches at every GVT /
  scheduler boundary; the parent's watchdog reads its mtime as
  GVT-progress evidence and SIGKILLs the child when it goes stale.
* ``CKPT_DIR`` — snapshot directory.  If it already holds snapshots
  (a previous attempt died mid-run), the worker restores the latest one
  and continues instead of starting over.

A point is a scenario plus engine settings.  Spec keys: ``kind``
(``seq`` / ``opt`` / ``cons``); ``scenario`` — an inline RPSCEN01
document, or ``{"path": ..., "hash": ...}`` naming a scenario file by
its compiled identity (the worker refuses to run if the file no longer
hashes to it); ``n_pes`` / ``n_kps`` / ``batch_size`` / ``window`` /
``overrides`` for the parallel engines (``overrides`` holds further
:class:`~repro.core.config.EngineConfig` fields; ``procs`` >= 2 runs the
point in process mode, its snapshots sharded per worker); ``telemetry``
(metrics JSONL path or ``None``); ``checkpoint_every``; ``sabotage``
(test hook: ``"stall"`` hangs without heartbeats, ``{"flaky": k}`` exits
1 on the first *k* attempts).  A spec in the older format (``n`` / ``load`` / ``duration`` /
``fault`` / ``seed`` keys) is refused by name before any work.

:func:`run_spec` is also how :func:`repro.experiments.common.run_point`
runs a point in-process (no checkpoint directory), so a point means the
same thing, and returns the same document, either way.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "POINT_KINDS", "SETTINGS", "check_point_spec", "point_scenario", "run_spec",
    "main",
]

#: Spec ``kind`` -> the engine it runs on.
POINT_KINDS = {"seq": "sequential", "opt": "optimistic", "cons": "conservative"}

#: Keys of the point-spec format before points were scenarios.
_OLD_KEYS = ("n", "load", "duration", "fault", "seed")

#: Spec keys that are engine settings of the parallel kinds.
SETTINGS = ("n_pes", "n_kps", "batch_size", "window")


def _delivery_percentiles(log) -> dict:
    """Nearest-rank latency percentiles of a ``(step, latency)`` log."""
    if not log:
        return {"latency_p50": 0.0, "latency_p95": 0.0, "latency_p99": 0.0}
    latencies = sorted(latency for _, latency in log)

    def rank(q: float) -> float:
        return float(latencies[max(0, math.ceil(q * len(latencies)) - 1)])

    return {
        "latency_p50": rank(0.50),
        "latency_p95": rank(0.95),
        "latency_p99": rank(0.99),
    }


def check_point_spec(spec: dict) -> None:
    """Refuse, by name, a spec that is not a scenario point."""
    if (
        any(k in spec for k in _OLD_KEYS)
        or spec.get("kind") not in POINT_KINDS
        or not isinstance(spec.get("scenario"), dict)
    ):
        raise ConfigurationError(
            f"point spec with keys {sorted(spec)} is not a scenario point "
            "(kind, scenario, engine settings); it was written in an older "
            "format — start the sweep afresh"
        )


def point_scenario(spec: dict):
    """The compiled scenario a point spec declares (an older spec format
    is refused by name)."""
    from repro.scenarios import Scenario, compile_scenario, load_scenario

    check_point_spec(spec)
    scen = spec["scenario"]
    if "path" in scen:
        return compile_scenario(load_scenario(scen["path"]))
    return compile_scenario(Scenario.from_dict(scen))


def _sabotage(spec: dict, ckpt_dir: Path) -> None:
    """Deterministic failure modes for the supervisor's own tests."""
    mode = spec.get("sabotage")
    if not mode:
        return
    if mode == "stall":
        # Hang without ever touching the heartbeat: the parent's
        # watchdog must notice and SIGKILL us.
        time.sleep(3600)
        sys.exit(1)
    if isinstance(mode, dict) and "flaky" in mode:
        counter = ckpt_dir / "flaky_attempts"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        attempts = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(attempts + 1))
        if attempts < int(mode["flaky"]):
            sys.exit(1)


def run_spec(spec: dict, heartbeat: Path | None = None, ckpt_dir: Path | None = None):
    """Run one point; returns its result document.

    The document is ``{"model_stats", "run"}``, plus the committed
    ``(step, latency)`` ``delivery_log`` when the scenario declares
    one; the final LPs hold compiled closures and are not kept.  With
    ``ckpt_dir`` the run snapshots there (touching ``heartbeat`` at
    every boundary) and resumes from its newest snapshot — in process
    mode from the newest one all worker shards hold — whose marker pins
    the spec and the compiled scenario identity.  A sequential point of
    a scenario *file* keeps a delivery log and adds nearest-rank latency
    percentiles (``latency_p50`` / ``_p95`` / ``_p99``) to
    ``model_stats``.
    """
    from repro.ckpt import Checkpointer, deferred_interrupts, latest_snapshot
    from repro.obs.capture import RunCapture

    compiled = point_scenario(spec)
    scen = spec["scenario"]
    if "path" in scen and compiled.scenario_hash() != scen.get("hash"):
        raise ValueError(
            f"scenario {scen['path']!r} hashes to {compiled.scenario_hash()}, "
            f"but the sweep manifest recorded {scen.get('hash')}; the file "
            "changed since the sweep was launched — refusing to compute a "
            "different experiment"
        )
    sim = compiled.sim
    kind = POINT_KINDS[spec["kind"]]
    settings = {k: spec[k] for k in SETTINGS if k in spec}
    settings.update(spec.get("overrides") or {})
    ckpt = payload = None
    if ckpt_dir is not None:
        _sabotage(spec, ckpt_dir)
        marker = {k: v for k, v in spec.items() if k not in ("sabotage", "telemetry")}
        ckpt = Checkpointer(
            ckpt_dir,
            every=spec.get("checkpoint_every", 4),
            marker={**marker, "scenario_hash": compiled.scenario_hash()},
            heartbeat=heartbeat,
        )
        procs = settings.get("procs", 1)
        if procs > 1:
            # The workers find and load the newest shard set themselves.
            from repro.mp.worker import common_resume_seq, shard_dir

            shards = [shard_dir(ckpt_dir, i) for i in range(procs)]
            ckpt.mp_resume = common_resume_seq(shards) is not None
        elif latest_snapshot(ckpt_dir) is not None:
            payload = ckpt.load_latest()

    telemetry = spec.get("telemetry")
    if payload is not None and payload.get("obs") is not None:
        capture = RunCapture.resume(payload["obs"])
    elif telemetry:
        capture = RunCapture(
            metrics_out=telemetry,
            meta={"engine": kind, "scenario": compiled.name,
                  "scenario_hash": compiled.scenario_hash(), "n": sim.cfg.n,
                  "load": sim.cfg.injector_fraction,
                  "duration": sim.cfg.duration, "seed": sim.seed},
            fault_plan=sim.fault_plan,
            injection_plan=sim.injection_plan,
        )
    else:
        capture = None
    hooks = {} if capture is None else {
        "tracer": capture.tracer, "metrics": capture.metrics, "spans": capture.spans,
    }
    if ckpt is not None:
        ckpt.capture = capture
    percentiles = kind == "sequential" and "path" in scen
    model = sim.model(delivery_log=percentiles or None)
    try:
        with deferred_interrupts(ckpt):
            result = sim.run(kind, model=model, checkpointer=ckpt, **hooks, **settings)
    except KeyboardInterrupt:
        if capture is not None:
            capture.finalize(None)
        raise
    if capture is not None:
        capture.finalize(result)
    doc = {"model_stats": result.model_stats, "run": result.run}
    if percentiles:
        result.model_stats.update(_delivery_percentiles(model.delivery_log))
    if sim.cfg.delivery_log:
        doc["delivery_log"] = model.delivery_log
    return doc


def main(argv: list[str] | None = None) -> int:
    """Entry point: run argv's spec, atomically persist the result pickle."""
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 4:
        print(
            "usage: python -m repro.experiments.pointworker "
            "SPEC.json RESULT.pkl HEARTBEAT CKPT_DIR",
            file=sys.stderr,
        )
        return 2
    spec_path, result_path, heartbeat, ckpt_dir = map(Path, argv)
    spec = json.loads(spec_path.read_text())
    try:
        doc = run_spec(spec, heartbeat, ckpt_dir)
    except ConfigurationError as exc:
        print(f"point refused: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    tmp = result_path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
