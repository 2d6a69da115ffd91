"""Validating the kernel against queueing theory.

The kernel isn't only for routing: this example runs the tandem M/M/1
model (`repro.models.mm1`) and compares the measured utilisation, mean
queue length L, and sojourn time W against their closed forms —
ρ = λ/μ, L = ρ/(1-ρ), W = 1/(μ-λ) — plus Little's law L = λW.  It then
re-runs the exact simulation on the Time Warp engine (with a
pipeline-hostile LP placement to force thousands of rollbacks) and on the
conservative (YAWNS) engine, confirming all three agree bit-exactly.

Run with::

    python examples/queueing_validation.py
"""

from repro.core import EngineConfig
from repro.core import run_conservative, run_optimistic, run_sequential
from repro.experiments.report import Table
from repro.models.mm1 import MM1Config, MM1Model

HORIZON = 5000.0
SEED = 17


def station_metrics(stats) -> tuple[float, float, float]:
    s = dict(stats["per_station"][0])
    horizon = s["last_change"]
    return (
        s["busy_area"] / horizon,  # utilisation
        s["area"] / horizon,  # L
        s["completed"] / horizon,  # effective λ
    )


def theory_table() -> None:
    table = Table(
        title=f"M/M/1 vs closed form ({HORIZON:.0f} time units)",
        columns=["λ", "metric", "theory", "measured", "rel err %"],
    )
    for lam in (0.3, 0.5, 0.7):
        cfg = MM1Config(stations=1, arrival_rate=lam, service_rate=1.0)
        result = run_sequential(MM1Model(cfg), HORIZON, seed=SEED)
        util, L, lam_eff = station_metrics(result.model_stats)
        W = result.model_stats["mean_total_sojourn"] - 0.1  # two transfers
        rows = [
            ("utilisation ρ", cfg.rho, util),
            ("mean in system L", cfg.expected_in_system, L),
            ("sojourn W", cfg.expected_sojourn, W),
            ("Little's law L-λW", 0.0, L - lam_eff * W),
        ]
        for name, theory, measured in rows:
            err = (
                abs(measured - theory) / theory * 100 if theory else abs(measured)
            )
            table.add_row(lam, name, theory, measured, err)
    print(table.to_text())
    print()


def engine_agreement() -> None:
    cfg = MM1Config(stations=3, arrival_rate=0.5, service_rate=1.0)
    end = 500.0
    seq = run_sequential(MM1Model(cfg), end, seed=1)
    tw = run_optimistic(
        MM1Model(cfg),
        EngineConfig(
            end_time=end, n_pes=3, n_kps=3, batch_size=64,
            mapping="random",  # scatter the pipeline: upstream stages run late
            seed=1,
        ),
    )
    cons = run_conservative(
        MM1Model(cfg),
        EngineConfig(end_time=end, n_pes=3, mapping="striped", seed=1),
    )
    print("Engine agreement (3-station tandem, 500 time units):")
    print(f"  sequential  : {seq.run.committed:,} events")
    print(
        f"  time-warp   : {tw.run.committed:,} events, "
        f"{tw.run.events_rolled_back:,} rolled back  "
        f"-> identical: {tw.model_stats == seq.model_stats}"
    )
    print(
        f"  conservative: {cons.run.committed:,} events, "
        f"{cons.run.events_rolled_back:,} rolled back "
        f"-> identical: {cons.model_stats == seq.model_stats}"
    )
    assert tw.model_stats == seq.model_stats
    assert cons.model_stats == seq.model_stats
    assert cons.run.events_rolled_back == 0


if __name__ == "__main__":
    theory_table()
    engine_agreement()
