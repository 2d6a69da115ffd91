"""Forensics toolkit tour: tracing and adaptive optimism.

Two things a simulator developer reaches for when an optimistic run
misbehaves, demonstrated on one workload:

1. the event **tracer** — who executed, who rolled back, who thrashed,
   and the event-level proof that the optimistic run committed exactly
   the sequential sequence;
2. the **adaptive throttle** — what happens to wasted work when the
   engine regulates its own optimism on a hostile (random) LP mapping.

Run with::

    python examples/timewarp_forensics.py
"""

from repro.core import EngineConfig, SequentialEngine, TimeWarpKernel, Tracer
from repro.hotpotato import HotPotatoConfig, HotPotatoModel

CFG = HotPotatoConfig(n=6, duration=60.0, injector_fraction=1.0)
END = CFG.duration


def traced_sequential():
    tracer = Tracer()
    engine = SequentialEngine(HotPotatoModel(CFG), END).attach_tracer(tracer)
    result = engine.run()
    return tracer, result


def traced_optimistic(**kw):
    kw.setdefault("mapping", "striped")
    tracer = Tracer()
    kernel = TimeWarpKernel(HotPotatoModel(CFG), EngineConfig(end_time=END, **kw))
    kernel.attach_tracer(tracer)
    result = kernel.run()
    return tracer, result


def main() -> None:
    seq_tracer, seq = traced_sequential()
    opt_tracer, opt = traced_optimistic(n_pes=4, n_kps=12, batch_size=64)

    print("1. Event-level repeatability")
    print(f"   sequential committed : {seq_tracer.counts['COMMIT']:,} events")
    print(
        f"   optimistic committed : {opt_tracer.counts['COMMIT']:,} events "
        f"(after {opt_tracer.counts['UNDO']:,} undos)"
    )
    identical = opt_tracer.committed_sequence() == seq_tracer.committed_sequence()
    print(f"   committed sequences identical: {identical}")
    assert identical

    thrash = opt_tracer.thrash_by_lp()
    worst = sorted(thrash.items(), key=lambda kv: -kv[1])[:5]
    print("   worst-thrashing routers:", ", ".join(f"lp{l} x{c}" for l, c in worst))
    print("   last trace lines:")
    for line in opt_tracer.format(last=3).splitlines():
        print(f"     {line}")

    print("\n2. Adaptive optimism on a hostile mapping")
    for adaptive in (False, True):
        _, result = traced_optimistic(
            n_pes=4,
            n_kps=12,
            batch_size=512,
            mapping="random",
            adaptive=adaptive,
        )
        rs = result.run
        label = "adaptive" if adaptive else "fixed   "
        print(
            f"   {label}: rolled back {rs.events_rolled_back:>6,}  "
            f"wasted {100 * (1 - rs.efficiency_ratio):4.1f}%  "
            f"final optimism factor {rs.throttle_final_factor:.3f}"
        )
        assert result.model_stats == seq.model_stats
    print("\nall configurations committed identical results.")


if __name__ == "__main__":
    main()
