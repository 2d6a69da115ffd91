"""Property tests for the scheduler structures and cancellation modes.

Two families of randomized/parametrized contracts:

1. **Queue equivalence** — the ladder queue must be
   observationally identical to the binary heap under arbitrary
   interleavings of push / pop / pop_below / cancellation, *including*
   timestamp ties and full-key ties (two events with the same
   ``(ts, origin, seq)``, ordered by creation serial).  A seeded twin
   harness drives both structures with identical event populations and
   asserts every observable (pop order, ``peek_key``, ``len``) matches
   step for step.

2. **Cancellation-mode bit-identity** — lazy cancellation, the ladder
   queue and incremental GVT are pure performance choices: committed
   event sequences must be bit-identical to the heap/aggressive/
   synchronous baseline on the golden seeds, including under a
   :class:`~repro.faults.FaultPlan` and across a checkpoint resume.
   Comparison uses :meth:`~repro.core.trace.Tracer.committed_sequence`
   (key-sorted; cross-KP commit *firing* order is not contractual).
"""

import random
import shutil

import pytest

from repro.ckpt import Checkpointer, list_snapshots
from repro.core.config import EngineConfig
from repro.core.event import Event
from repro.core.optimistic import TimeWarpKernel, run_optimistic
from repro.core.queue import make_pending_queue
from repro.core.trace import Tracer
from repro.faults import EngineFaults, FaultPlan
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel
from repro.models.phold import PholdConfig, PholdModel
from repro.vt.time import EventKey

# ----------------------------------------------------------------------
# 1. Randomized queue-equivalence twin harness.
# ----------------------------------------------------------------------


def _twin_pair(ts, origin, seq):
    """Two events with the same key, created back to back so the global
    creation serial (the final tie-break) orders them consistently
    within each population."""
    return (
        Event(EventKey(ts, origin, seq), 0, "k"),
        Event(EventKey(ts, origin, seq), 0, "k"),
    )


class _TwinHarness:
    """Drives a reference heap and a candidate queue with twin event
    populations and checks every observable after each operation."""

    def __init__(self, candidate: str, rng: random.Random):
        self.rng = rng
        self.heap = make_pending_queue("heap")
        self.cand = make_pending_queue(candidate)
        self.pair_id = {}  # id(event) -> pair index, either population
        self.live = {}  # pair index -> (heap_ev, cand_ev)
        self.n_pairs = 0
        self.popped = []  # sequence of popped pair indices

    # Coarse grids force plenty of timestamp ties and full-key ties.
    def _key(self):
        r = self.rng
        return r.randrange(64) / 8.0, r.randrange(4), r.randrange(4)

    def push(self):
        a, b = _twin_pair(*self._key())
        i = self.n_pairs
        self.n_pairs += 1
        self.pair_id[id(a)] = self.pair_id[id(b)] = i
        self.live[i] = (a, b)
        self.heap.push(a)
        self.cand.push(b)

    def pop(self):
        if not self.live:
            return
        a = self.heap.pop()
        b = self.cand.pop()
        i = self.pair_id[id(a)]
        assert self.pair_id[id(b)] == i, "pop order diverged"
        assert b.entry[:3] == a.entry[:3]
        del self.live[i]
        self.popped.append(i)

    def pop_below(self):
        limit = self.rng.randrange(64) / 8.0
        a = self.heap.pop_below(limit)
        b = self.cand.pop_below(limit)
        if a is None:
            assert b is None, f"pop_below({limit}) found an event only in candidate"
            return
        assert b is not None, f"pop_below({limit}) found an event only in heap"
        i = self.pair_id[id(a)]
        assert self.pair_id[id(b)] == i, "pop_below order diverged"
        del self.live[i]
        self.popped.append(i)

    def cancel(self):
        if not self.live:
            return
        i = self.rng.choice(sorted(self.live))
        a, b = self.live.pop(i)
        a.cancelled = b.cancelled = True
        self.heap.note_cancelled()
        self.cand.note_cancelled()

    def check_observables(self):
        assert len(self.heap) == len(self.cand) == len(self.live)
        assert bool(self.heap) == bool(self.cand)
        assert self.heap.peek_key() == self.cand.peek_key()
        hk, ck = self.heap.peek(), self.cand.peek()
        if hk is None:
            assert ck is None
        else:
            assert self.pair_id[id(hk)] == self.pair_id[id(ck)]


@pytest.mark.parametrize("candidate", ["ladder"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_queue_matches_heap_under_random_interleavings(candidate, seed):
    rng = random.Random(seed)
    h = _TwinHarness(candidate, rng)
    ops = (
        [h.push] * 5  # keep the structure populated
        + [h.pop] * 2
        + [h.pop_below] * 2
        + [h.cancel] * 2
    )
    for _ in range(400):
        rng.choice(ops)()
        h.check_observables()
    # Drain completely: the tail order must match too.
    while h.live:
        h.pop()
        h.check_observables()
    assert len(h.popped) == len(set(h.popped)), "an event popped twice"
    assert h.n_pairs > 100, "harness barely exercised the structures"


@pytest.mark.parametrize("candidate", ["ladder"])
def test_queue_full_key_ties_break_by_creation_order(candidate):
    """Many events sharing one exact key drain in creation order from
    both structures (the entry-tuple serial is the only discriminator)."""
    heap, cand = make_pending_queue("heap"), make_pending_queue(candidate)
    pairs = [_twin_pair(1.0, 0, 0) for _ in range(32)]
    for a, b in pairs:
        heap.push(a)
        cand.push(b)
    for a, b in pairs:
        assert heap.pop() is a
        assert cand.pop() is b


# ----------------------------------------------------------------------
# 2. Cancellation-mode / queue / GVT bit-identity on the golden seeds.
# ----------------------------------------------------------------------

GOLDEN_SEEDS = (0x5EED, 7)

_PHOLD = PholdConfig(n_lps=36, jobs_per_lp=3, lookahead=0.05, remote_fraction=0.7)
_PHOLD_END = 15.0

_HP_CFG = HotPotatoConfig(n=8, duration=15.0, injector_fraction=1.0)
_HP_SEED = 0x5EED


def _phold_run(seed, **overrides):
    ecfg = EngineConfig(
        end_time=_PHOLD_END, n_pes=4, n_kps=16, batch_size=16, seed=seed,
        **overrides,
    )
    tracer = Tracer()
    result = run_optimistic(PholdModel(_PHOLD), ecfg, tracer=tracer)
    return tracer.committed_sequence(), dict(result.model_stats)


_PHOLD_BASELINE = {}


def _phold_baseline(seed):
    if seed not in _PHOLD_BASELINE:
        _PHOLD_BASELINE[seed] = _phold_run(seed)
    return _PHOLD_BASELINE[seed]


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize(
    "overrides",
    [
        {"queue": "ladder"},
        {"cancellation": "lazy"},
        {"queue": "ladder", "cancellation": "lazy"},
        {"queue": "ladder", "cancellation": "lazy", "gvt": "incremental"},
        {"cancellation": "lazy", "gvt": "mattern", "transport": "mailbox"},
    ],
    ids=["ladder", "lazy", "ladder-lazy", "ladder-lazy-incgvt", "lazy-mattern"],
)
def test_phold_committed_sequence_matches_baseline(seed, overrides):
    base_seq, base_stats = _phold_baseline(seed)
    assert base_seq, "baseline committed nothing — scenario is vacuous"
    seq, stats = _phold_run(seed, **overrides)
    assert seq == base_seq
    assert stats == base_stats


def _hotpotato_run(plan=None, engine_plan=None, **overrides):
    ecfg = EngineConfig(
        end_time=_HP_CFG.duration, n_pes=4, n_kps=16, batch_size=16,
        seed=_HP_SEED, **overrides,
    )
    tracer = Tracer()
    model = HotPotatoModel(_HP_CFG, fault_plan=plan)
    faults = EngineFaults(engine_plan) if engine_plan is not None else None
    result = run_optimistic(model, ecfg, tracer=tracer, faults=faults)
    return tracer.committed_sequence(), dict(result.model_stats), result


def test_fault_plan_identity_lazy_ladder():
    """Model faults + transport chaos: the lazy/ladder engine commits the
    exact sequence the heap/aggressive engine does."""
    from repro.faults import generate_plan
    from repro.net import TorusTopology

    model_plan = generate_plan(
        TorusTopology(_HP_CFG.n),
        duration=_HP_CFG.duration,
        link_fail_rate=0.1,
        heal_after=8,
        seed=0xD00D,
    )
    transport_plan = FaultPlan(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )
    base_seq, base_stats, _ = _hotpotato_run(plan=model_plan, engine_plan=transport_plan)
    seq, stats, result = _hotpotato_run(
        plan=model_plan, engine_plan=transport_plan,
        queue="ladder", cancellation="lazy",
    )
    assert seq == base_seq
    assert stats == base_stats
    # The scenario actually exercised both fault classes.
    assert stats["fault_events"] > 0
    run = result.run
    assert run.transport_dropped + run.transport_duplicated + run.transport_delayed > 0


def test_checkpoint_resume_identity_lazy_ladder(tmp_path):
    """Interrupt a lazy/ladder/incremental-GVT run at a mid-run snapshot
    and resume: the completed run matches the heap/aggressive oracle that
    never checkpointed — under a non-empty FaultPlan."""
    plan_kwargs = dict(
        drop_rate=0.05, dup_rate=0.05, delay_rate=0.08, delay_rounds=2, seed=99
    )
    duration = 12.0
    cfg = HotPotatoConfig(n=4, duration=duration, injector_fraction=1.0)

    def make(**overrides):
        ecfg = EngineConfig(
            end_time=duration, n_pes=4, n_kps=16, batch_size=16, seed=7,
            **overrides,
        )
        kernel = TimeWarpKernel(HotPotatoModel(cfg), ecfg)
        kernel.attach_faults(EngineFaults(FaultPlan(**plan_kwargs)))
        return kernel

    oracle = make().run()  # heap / aggressive / synchronous, no checkpointer

    fast = dict(queue="ladder", cancellation="lazy", gvt="incremental")
    snap_dir = tmp_path / "snaps"
    marker = {"case": "prop-resume"}
    ckpt = Checkpointer(snap_dir, every=2, marker=marker)
    recorded = make(**fast).attach_checkpointer(ckpt).run()
    assert recorded.model_stats == oracle.model_stats

    snaps = list_snapshots(snap_dir)
    assert len(snaps) > 2, "cadence produced no mid-run snapshots"
    for snap in (snaps[0], snaps[len(snaps) // 2]):
        d = tmp_path / f"resume_{snap.stem}"
        d.mkdir()
        shutil.copy(snap, d / snap.name)
        ck = Checkpointer(d, every=1 << 30, marker=marker)
        ck.load_latest()
        resumed = make(**fast).attach_checkpointer(ck).run()
        assert resumed.model_stats == oracle.model_stats, (
            f"resume from {snap.name} diverged from the heap/aggressive oracle"
        )
