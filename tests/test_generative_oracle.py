"""The generative oracle: every drawn run commits the sequential oracle's
run, or is refused before its first event.

One hypothesis strategy draws an example:

* a scenario document: N, topology, routing policy, load, duration, a
  generated fault plan (failing links, optionally transport noise), an
  adversary strategy and rate, and the seed;
* an engine: the conservative kernel, or Time Warp over PEs / KPs /
  batch / rollback, in process or over two worker processes;
* an optional liveness watchdog at its default thresholds;
* a disturbance: none, or (in-process engines only) a kill at a drawn
  checkpoint boundary, resumed from the newest or the second-newest
  snapshot.

Every example ends in exactly one of two outcomes.  Either the engine
commits the oracle's traced event sequence and ``model_stats`` with
packets conserved, or a :class:`~repro.errors.ConfigurationError` is
raised before the model's handler table serves a single event —
transport noise on the conservative kernel is one such refusal.  A
crash, a watchdog abort or a divergence fails the example, and the
failure notes the scenario document with the command that replays it
(``python -m repro.hotpotato --scenario FILE --engine ... --validate``).

The example count comes from the hypothesis profile in
``tests/conftest.py``: tier-1 runs the derandomized default, CI the
random ``soak`` profile.  ``--hypothesis-show-statistics`` prints how
often each axis value, outcome and disturbance came up.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, note, settings
from hypothesis import strategies as st

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.trace import Tracer
from repro.errors import ConfigurationError
from repro.health import Watchdog
from repro.hotpotato.__main__ import ENGINE_NAMES, build_parser
from repro.hotpotato.router import ARRIVE, HEARTBEAT, INIT, INJECT, ROUTE
from repro.obs.capture import RunCapture
from repro.obs.recorder import load_recording
from repro.scenarios import STRATEGIES, Scenario, compile_scenario, report_scenario
from tests.kernel_models import plan_spy

SIZES = (4, 8)
TOPOLOGIES = ("torus", "mesh")
POLICIES = ("busch", "greedy")
LOADS = (0.25, 0.5, 0.75, 1.0)
DURATIONS = (16.0, 24.0, 32.0)
LINK_RATES = (0.02, 0.05, 0.1)
ADVERSARY_RATES = (0.5, 1.0)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

PES = (1, 2, 4)
#: Some of these cannot serve some PE counts or grids (fewer KPs than
#: PEs, not a multiple, more KPs than routers, tiles that do not divide
#: the grid): those examples must be refused up front.
KPS = (1, 2, 4, 8, 16, 32)
BATCHES = (1, 16, 256)
ROLLBACKS = ("reverse", "copy")
PROCS = (1, 2)

KINDS = (INIT, ARRIVE, ROUTE, INJECT, HEARTBEAT)
MARKER = {"test": "generative-oracle"}


@st.composite
def scenario_documents(draw):
    """An RPSCEN01 document over the axes above."""
    faults = None
    if draw(st.booleans()):
        generate = {"link_fail_rate": draw(st.sampled_from(LINK_RATES)),
                    "seed": draw(SEEDS)}
        if draw(st.booleans()):
            generate.update(drop_rate=0.02, dup_rate=0.02, delay_rate=0.03)
        faults = {"generate": generate}
    traffic = None
    if draw(st.booleans()):
        traffic = {"model": "adversarial",
                   "strategy": draw(st.sampled_from(STRATEGIES)),
                   "rate": draw(st.sampled_from(ADVERSARY_RATES)),
                   "seed": draw(SEEDS)}
    return report_scenario(
        draw(st.sampled_from(SIZES)),
        draw(st.sampled_from(DURATIONS)),
        injector_fraction=draw(st.sampled_from(LOADS)),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        policy=draw(st.sampled_from(POLICIES)),
        seed=draw(SEEDS),
        faults=faults,
        traffic=traffic,
        name="generative-oracle",
    ).to_dict()


@st.composite
def engines(draw):
    """``(kind, settings)`` for :meth:`HotPotatoSimulation.run`."""
    n_pes = draw(st.sampled_from(PES))
    if draw(st.booleans()):
        return "conservative", {"n_pes": n_pes}
    return "optimistic", {
        "n_pes": n_pes,
        "n_kps": draw(st.sampled_from(KPS)),
        "batch_size": draw(st.sampled_from(BATCHES)),
        "rollback": draw(st.sampled_from(ROLLBACKS)),
        "procs": draw(st.sampled_from(PROCS)),
    }


@st.composite
def disturbances(draw, in_process):
    """None, or ``(every, kill_at, snapshot)`` for an in-process engine."""
    if not in_process or not draw(st.booleans()):
        return None
    return (draw(st.sampled_from((1, 2, 4))),
            draw(st.integers(min_value=1, max_value=24)),
            draw(st.sampled_from(("newest", "second-newest"))))


@st.composite
def examples(draw):
    doc = draw(scenario_documents())
    kind, engine = draw(engines())
    watched = draw(st.booleans())
    kill = draw(disturbances(engine.get("procs", 1) == 1))
    return doc, kind, engine, watched, kill


class _KillAt(Checkpointer):
    """A checkpointer whose run is interrupted at boundary ``kill_at``,
    the way SIGINT lands: final snapshot, then KeyboardInterrupt."""

    def __init__(self, directory, *, kill_at, **kwargs):
        super().__init__(directory, **kwargs)
        self.kill_at = kill_at

    def boundary(self, engine, loop=None):
        if self.boundaries + 1 == self.kill_at:
            self.request_interrupt()
        super().boundary(engine, loop)


def _replay_notes(doc, kind, engine, watched, kill):
    # The rollback strategy has no flag: the settings note names it.
    short = next(name for name, full in ENGINE_NAMES.items() if full == kind)
    flags = f"--engine {short} --processors {engine['n_pes']}"
    if kind == "optimistic":
        flags += f" --kps {engine['n_kps']} --batch {engine['batch_size']}"
        if engine["procs"] > 1:
            flags += f" --procs {engine['procs']}"
    args = build_parser().parse_args(f"--scenario FILE {flags} --validate".split())
    assert ENGINE_NAMES[args.engine] == kind and args.validate
    note("scenario document (save as FILE):\n"
         + json.dumps(doc, indent=2, sort_keys=True))
    note(f"replay: python -m repro.hotpotato --scenario FILE {flags} --validate")
    note(f"engine settings {engine}, watchdog={watched}, kill={kill}")


def _axis_events(doc, kind, engine, watched):
    """One hypothesis ``event`` per drawn axis value, for
    ``--hypothesis-show-statistics``."""
    traffic, faults = doc["traffic"], doc["faults"]
    event(f"n: {doc['topology']['n']}")
    event(f"topology: {doc['topology']['kind']}")
    event(f"policy: {doc['routing']['policy']}")
    event(f"duration: {doc['engine']['duration']}")
    if traffic["model"] == "bernoulli":
        event(f"load: {traffic['injector_fraction']}")
    else:
        event(f"adversary: {traffic['strategy']}")
        event(f"adversary rate: {traffic['rate']}")
    if faults is not None:
        event(f"link fail rate: {faults['generate']['link_fail_rate']}")
        event(f"transport noise: {'drop_rate' in faults['generate']}")
    event(f"engine: {kind}")
    for axis, value in engine.items():
        event(f"{axis}: {value}")
    event(f"watchdog: {watched}")


def _killed_and_resumed(sim, kind, engine, watched, kill, work, model):
    """Run ``model`` with a kill at the drawn boundary, resume a fresh
    model from the drawn snapshot; return the result and the recorded
    committed sequence."""
    every, kill_at, snapshot = kill
    trace = work / "trace.jsonl"
    ckpt = _KillAt(work / "ckpt", every=every, marker=MARKER, kill_at=kill_at)
    capture = RunCapture(trace_out=trace)
    ckpt.capture = capture
    try:
        result = sim.run(kind, model=model, tracer=capture.tracer,
                         checkpointer=ckpt,
                         health=Watchdog() if watched else None, **engine)
        event("disturbance: the run ended before the kill")
    except KeyboardInterrupt:
        capture.finalize(None)
        snaps = list_snapshots(ckpt.dir)
        if snapshot == "second-newest" and len(snaps) >= 2:
            snaps[-1].unlink()
        else:
            snapshot = "newest"
        event(f"disturbance: killed, resumed from the {snapshot} snapshot")
        # The rest of the run needs no snapshots of its own.
        resume = Checkpointer(ckpt.dir, every=1 << 30, marker=MARKER)
        capture = RunCapture.resume(resume.load_latest()["obs"])
        resume.capture = capture
        result = sim.run(kind, tracer=capture.tracer, checkpointer=resume,
                         health=Watchdog() if watched else None, **engine)
    capture.finalize(result)
    return result, load_recording(trace).committed_sequence()


@given(example=examples())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_drawn_run_commits_the_oracle_or_is_refused(example):
    doc, kind, engine, watched, kill = example
    _replay_notes(*example)
    sim = compile_scenario(Scenario.from_dict(doc)).sim
    _axis_events(doc, kind, engine, watched)

    oracle_tracer = Tracer()
    oracle_engine = sim.engine("sequential").attach_tracer(oracle_tracer)
    oracle = oracle_engine.run()
    assert oracle_engine.model.check_conservation(oracle_engine.lps) is None

    model = sim.model()
    served = plan_spy(model, KINDS)
    try:
        if kill is not None:
            with tempfile.TemporaryDirectory() as work:
                result, sequence = _killed_and_resumed(
                    sim, kind, engine, watched, kill, Path(work), model)
        else:
            event("disturbance: none")
            tracer = Tracer()
            result = sim.run(kind, model=model, tracer=tracer,
                             health=Watchdog() if watched else None, **engine)
            sequence = tracer.committed_sequence()
    except ConfigurationError as exc:
        assert sum(served) == 0, f"refused after the first event: {exc}"
        event("outcome: refused before the first event")
        return
    event("outcome: committed the oracle's run")
    assert result.model_stats == oracle.model_stats
    assert sequence == oracle_tracer.committed_sequence()
    ms = result.model_stats
    assert ms["delivered"] <= ms["injected"] + ms["initial_packets"]
