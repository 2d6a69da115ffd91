"""Seed-driven chaos campaigns: fuzz the stack, assert the invariants.

One *episode* is a randomly generated workload (size, load, duration,
optional :mod:`repro.faults` plan, optional :mod:`repro.scenarios`
adversary) plus one *disturbance*.  The workload compiles to a scenario
like any other run, and its
:class:`~repro.hotpotato.simulation.HotPotatoSimulation` builds every
engine the episode runs.  The disturbances:

* ``none`` — no disturbance; the episode still checks seq == opt.
* ``kill_resume`` — the optimistic run is interrupted at a seeded
  boundary exactly as a SIGKILL-after-final-snapshot would land (a
  ``hard`` variant additionally deletes the newest snapshot, emulating
  a kill *before* the final snapshot hit disk), then resumed from the
  surviving snapshot.
* ``watchdog_restore`` — the liveness watchdog is forced to trip at a
  seeded boundary with a ``restore`` ladder; the recovery runner grafts
  the last good snapshot and re-runs.

Every episode asserts the standing invariants:

1. the sequential oracle and the optimistic kernel commit the identical
   event sequence (and identical model statistics);
2. packet conservation holds on every completed engine
   (``model.check_conservation``, the same hook ``--paranoid`` uses);
3. a resumed run's committed sequence is bit-identical to the
   undisturbed run's (compared record by record from the trace);
4. a watchdog-triggered recovery converges to the same committed
   results as the undisturbed run.

Episodes are journaled to ``episodes.jsonl`` in the output directory as
they complete, so an interrupted campaign resumes where it stopped: a
re-run with the same seed skips every journaled episode.  An episode
with violations gets a forensics bundle
(:func:`repro.health.write_forensics_bundle`) next to the journal.

Everything derives from the campaign seed through
:func:`repro.rng.derive_seed`, so a campaign is exactly reproducible
from ``(seed, episodes)`` alone.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.rng import derive_seed

__all__ = [
    "DEFAULT_CAMPAIGN_SEED",
    "DISTURBANCES",
    "EpisodeRecipe",
    "EpisodeResult",
    "CampaignResult",
    "derive_recipe",
    "run_episode",
    "run_campaign",
]

DEFAULT_CAMPAIGN_SEED = 0xC4A05
DISTURBANCES = ("none", "kill_resume", "watchdog_restore")

_SIZES = (4, 8)
_LOADS = (0.25, 0.5, 0.75, 1.0)
_DURATIONS = (16.0, 24.0, 32.0)
_LINK_RATES = (0.02, 0.05, 0.1)
_ADVERSARY_RATES = (0.5, 1.0)


@dataclass(frozen=True)
class EpisodeRecipe:
    """Everything one episode does, derived from (campaign seed, index)."""

    episode: int
    seed: int
    n: int
    load: float
    duration: float
    #: ``{"link_rate": r, "seed": s}`` or None.
    fault: dict | None
    #: ``{"strategy": s, "rate": r, "seed": s}`` or None.
    adversary: dict | None
    disturbance: str
    #: Boundary at which the disturbance strikes (kill / forced trip).
    strike_boundary: int
    #: kill_resume only: also delete the newest snapshot before resuming.
    hard_kill: bool


@dataclass
class EpisodeResult:
    """Outcome of one episode: what ran, what (if anything) broke."""

    recipe: EpisodeRecipe
    violations: list[str] = field(default_factory=list)
    #: Committed-event count of the undisturbed optimistic run.
    committed: int = 0
    #: Recovery-action journal (watchdog episodes).
    actions: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_journal(self) -> dict:
        """JSONL record appended to ``episodes.jsonl`` for this episode."""
        return {
            "t": "episode",
            "episode": self.recipe.episode,
            "seed": self.recipe.seed,
            "recipe": asdict(self.recipe),
            "ok": self.ok,
            "violations": list(self.violations),
            "committed": self.committed,
            "actions": list(self.actions),
            "elapsed": round(self.elapsed, 3),
        }


@dataclass
class CampaignResult:
    """Campaign totals (journaled episodes count as run)."""

    episodes: int = 0
    skipped: int = 0
    violations: int = 0
    by_disturbance: dict = field(default_factory=dict)
    journal: Path | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def derive_recipe(campaign_seed: int, episode: int) -> EpisodeRecipe:
    """Deterministically expand one episode index into a recipe."""
    seed = derive_seed(campaign_seed, episode)
    rng = random.Random(seed)
    from repro.scenarios import STRATEGIES

    fault = None
    if rng.random() < 0.5:
        fault = {
            "link_rate": rng.choice(_LINK_RATES),
            "seed": rng.randrange(1 << 31),
        }
    adversary = None
    if rng.random() < 0.4:
        adversary = {
            "strategy": rng.choice(STRATEGIES),
            "rate": rng.choice(_ADVERSARY_RATES),
            "seed": rng.randrange(1 << 31),
        }
    return EpisodeRecipe(
        episode=episode,
        seed=rng.randrange(1 << 31),
        n=rng.choice(_SIZES),
        load=rng.choice(_LOADS),
        duration=rng.choice(_DURATIONS),
        fault=fault,
        adversary=adversary,
        disturbance=rng.choice(DISTURBANCES),
        strike_boundary=rng.randrange(8, 48),
        hard_kill=rng.random() < 0.5,
    )


# ----------------------------------------------------------------------
# The episode's workload, as a scenario.
# ----------------------------------------------------------------------
#: Engine settings per kind (HotPotatoSimulation.engine's keywords).
_ENGINE_SETTINGS = {
    "sequential": {},
    "optimistic": {"n_pes": 2, "n_kps": 8, "batch_size": 16},
}


def _simulation(recipe: EpisodeRecipe):
    """The recipe's workload compiled like any other scenario."""
    from repro.scenarios import compile_scenario, report_scenario

    traffic = None
    if recipe.adversary is not None:
        traffic = {"model": "adversarial", **recipe.adversary}
    faults = None
    if recipe.fault is not None:
        faults = {"generate": {
            "link_fail_rate": recipe.fault["link_rate"],
            "seed": recipe.fault["seed"],
        }}
    return compile_scenario(report_scenario(
        recipe.n,
        recipe.duration,
        injector_fraction=recipe.load,
        seed=recipe.seed,
        faults=faults,
        traffic=traffic,
        name=f"chaos-episode-{recipe.episode}",
    )).sim


def _engine(sim, kind: str):
    """A fresh, fully configured engine of ``kind`` over the workload."""
    return sim.engine(kind, **_ENGINE_SETTINGS[kind])


def _conservation(engine) -> str | None:
    """The model's packet-conservation diagnostic for a finished engine."""
    check = getattr(engine.model, "check_conservation", None)
    return check(engine.lps) if check is not None else None


# ----------------------------------------------------------------------
# Disturbances.
# ----------------------------------------------------------------------
class _KillSwitch:
    """Force a deferred interrupt at one boundary (an in-process SIGKILL
    stand-in: the run dies mid-flight exactly where a signal would have
    landed, via the same final-snapshot-then-KeyboardInterrupt path)."""

    def __init__(self, ckpt, kill_at: int) -> None:
        self.ckpt = ckpt
        self.kill_at = kill_at
        self.fired = False

    def arm(self) -> None:
        ckpt, outer = self.ckpt, self
        original = ckpt.boundary

        def boundary(engine, loop=None):
            if not outer.fired and ckpt.boundaries + 1 >= outer.kill_at:
                outer.fired = True
                ckpt.interrupted = True
            return original(engine, loop)

        ckpt.boundary = boundary


def _commit_lines(path: Path) -> list[tuple]:
    """COMMIT records of a trace JSONL, as committed-sequence tuples."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if doc.get("t") == "trace" and doc.get("a") == "COMMIT":
                out.append(
                    (doc["ts"], doc["origin"], doc["seq"], doc["dst"],
                     doc["kind"])
                )
    return sorted(out)


def _episode_kill_resume(
    recipe: EpisodeRecipe, sim, work_dir: Path, baseline_sequence,
    result: EpisodeResult,
) -> None:
    """Interrupt an optimistic run at a seeded boundary, resume, compare."""
    from repro.ckpt import Checkpointer, list_snapshots
    from repro.obs.capture import RunCapture

    ckpt_dir = work_dir / "ckpt"
    trace_path = work_dir / "trace.jsonl"
    marker = {"episode": recipe.episode, "seed": recipe.seed}

    ckpt = Checkpointer(ckpt_dir, every=4, marker=marker)
    _KillSwitch(ckpt, recipe.strike_boundary).arm()
    capture = RunCapture(trace_out=trace_path, meta={"engine": "opt"})
    engine = _engine(sim, "optimistic")
    capture.attach(engine)
    engine.attach_checkpointer(ckpt)
    ckpt.capture = capture
    interrupted = False
    try:
        engine.run()
    except KeyboardInterrupt:
        interrupted = True
        capture.finalize(None)
    if not interrupted:
        # The run finished before the strike boundary (tiny episodes):
        # nothing was disturbed, so the trace must still match.
        capture.finalize(None)
        if _commit_lines(trace_path) != baseline_sequence:
            result.violations.append(
                "undisturbed traced run diverged from baseline"
            )
        return

    if recipe.hard_kill and len(list_snapshots(ckpt_dir)) >= 2:
        # Emulate a kill that beat the final snapshot to disk: resume
        # must fall back to the previous one and still converge.
        newest = list_snapshots(ckpt_dir)[-1]
        os.unlink(newest)

    resume = Checkpointer(ckpt_dir, every=4, marker=marker)
    payload = resume.load_latest()
    cap2 = RunCapture.resume(payload.get("obs"))
    engine2 = _engine(sim, "optimistic")
    cap2.attach(engine2)
    engine2.attach_checkpointer(resume)
    resume.capture = cap2
    res = engine2.run()
    cap2.finalize(res)

    diag = _conservation(engine2)
    if diag is not None:
        result.violations.append(f"conservation after resume: {diag}")
    got = _commit_lines(trace_path)
    if got != baseline_sequence:
        result.violations.append(
            f"resume diverged: {len(got)} committed record(s) vs "
            f"{len(baseline_sequence)} in the undisturbed run"
        )


def _episode_watchdog(
    recipe: EpisodeRecipe,
    sim,
    work_dir: Path,
    baseline_stats,
    result: EpisodeResult,
) -> None:
    """Force a watchdog trip; the restore must converge on baseline results."""
    from repro.ckpt import Checkpointer
    from repro.health import (
        HealthAbort,
        HealthConfig,
        RecoveryPolicy,
        Watchdog,
        run_with_recovery,
    )

    wd = Watchdog(
        HealthConfig(
            ladder=("restore", "abort"),
            trip_at_boundary=recipe.strike_boundary,
        )
    )
    ckpt = Checkpointer(
        work_dir / "ckpt",
        every=4,
        marker={"episode": recipe.episode, "seed": recipe.seed},
    )
    try:
        rec = run_with_recovery(
            lambda: _engine(sim, "optimistic"),
            wd,
            policy=RecoveryPolicy(max_restores=2, backoff_base=0.0),
            ckpt=ckpt,
            sleep=lambda _s: None,
            on_action=result.actions.append,
        )
    except HealthAbort as exc:
        result.violations.append(f"recovery aborted: {exc}")
        return

    diag = _conservation(rec.engine)
    if diag is not None:
        result.violations.append(f"conservation after recovery: {diag}")
    if rec.result.model_stats != baseline_stats:
        result.violations.append(
            "restored run's model stats diverged from the undisturbed "
            "optimistic run"
        )


# ----------------------------------------------------------------------
# Episode / campaign drivers.
# ----------------------------------------------------------------------
def run_episode(recipe: EpisodeRecipe, work_dir: str | Path) -> EpisodeResult:
    """Run one episode; ``work_dir`` holds its snapshots and traces."""
    from repro.core.trace import Tracer

    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    result = EpisodeResult(recipe=recipe)
    start = time.perf_counter()

    # Invariant 1: the sequential oracle and the optimistic kernel agree.
    sim = _simulation(recipe)
    seq_tracer, opt_tracer = Tracer(), Tracer()
    seq_engine = _engine(sim, "sequential").attach_tracer(seq_tracer)
    seq_res = seq_engine.run()
    opt_engine = _engine(sim, "optimistic").attach_tracer(opt_tracer)
    opt_res = opt_engine.run()
    baseline_sequence = opt_tracer.committed_sequence()
    result.committed = opt_res.run.committed
    if seq_tracer.committed_sequence() != baseline_sequence:
        result.violations.append(
            "seq and opt committed different event sequences"
        )
    if seq_res.model_stats != opt_res.model_stats:
        result.violations.append("seq and opt model stats differ")

    # Invariant 2: packet conservation on both engines.
    for label, engine in (("seq", seq_engine), ("opt", opt_engine)):
        diag = _conservation(engine)
        if diag is not None:
            result.violations.append(f"conservation ({label}): {diag}")

    # Invariants 3/4: the episode's disturbance must be survivable.
    if recipe.disturbance == "kill_resume":
        _episode_kill_resume(recipe, sim, work_dir, baseline_sequence, result)
    elif recipe.disturbance == "watchdog_restore":
        _episode_watchdog(recipe, sim, work_dir, opt_res.model_stats, result)

    result.elapsed = time.perf_counter() - start
    return result


def _load_journal(path: Path) -> dict[int, bool]:
    """episode index -> ok, replayed from an existing campaign journal."""
    done: dict[int, bool] = {}
    if not path.exists():
        return done
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-append
            if doc.get("t") == "episode":
                done[int(doc["episode"])] = bool(doc.get("ok"))
    return done


def run_campaign(
    *,
    seed: int = DEFAULT_CAMPAIGN_SEED,
    episodes: int = 25,
    out_dir: str | Path = "chaos_out",
    fresh: bool = False,
    log=None,
) -> CampaignResult:
    """Run (or resume) a chaos campaign; returns the totals.

    Episodes already journaled in ``out_dir/episodes.jsonl`` are skipped
    (their verdicts still count toward the totals) unless ``fresh``
    truncates the journal first.  Violating episodes get a forensics
    bundle under ``out_dir/forensics_epNNN``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "episodes.jsonl"
    if fresh and journal_path.exists():
        journal_path.unlink()
    done = _load_journal(journal_path)

    totals = CampaignResult(journal=journal_path)
    with journal_path.open("a", encoding="utf-8") as journal:
        for index in range(episodes):
            recipe = derive_recipe(seed, index)
            if index in done:
                totals.episodes += 1
                totals.skipped += 1
                if not done[index]:
                    totals.violations += 1
                continue
            result = run_episode(recipe, out_dir / f"ep{index:03d}")
            journal.write(json.dumps(result.to_journal(), sort_keys=True) + "\n")
            journal.flush()
            os.fsync(journal.fileno())
            totals.episodes += 1
            totals.by_disturbance[recipe.disturbance] = (
                totals.by_disturbance.get(recipe.disturbance, 0) + 1
            )
            if not result.ok:
                totals.violations += 1
                from repro.health import write_forensics_bundle

                bundle = write_forensics_bundle(
                    out_dir / f"forensics_ep{index:03d}",
                    actions=result.actions,
                    extra={
                        "episode": index,
                        "recipe": asdict(recipe),
                        "violations": list(result.violations),
                    },
                )
                if log is not None:
                    log(
                        f"episode {index}: VIOLATION "
                        f"({'; '.join(result.violations)}) — forensics: "
                        f"{bundle}"
                    )
            elif log is not None:
                log(
                    f"episode {index}: ok "
                    f"[{recipe.disturbance}, n={recipe.n}, "
                    f"load={recipe.load}, duration={recipe.duration:g}, "
                    f"committed={result.committed}, "
                    f"{result.elapsed:.2f}s]"
                )
    return totals
