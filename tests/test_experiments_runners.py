"""Integration tests: every experiment regenerates at tiny scale, and the
figure and ablation tables support the claims the report makes of them.
"""

import pathlib

import pytest

from repro.analysis.linfit import fit_linear
from repro.core.mapping import kp_count_for
from repro.errors import ConfigurationError
from repro.experiments.common import SweepParams
from repro.experiments.figures import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.runner import build_parser, main

_SCENARIO = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "scenarios" / "adversarial_faulted.json"
)

TINY = SweepParams(
    sizes=(4, 8),
    duration=30.0,
    loads=(0.5, 1.0),
    pe_counts=(1, 2, 4),
    kp_counts=(4, 16),
    window=2.0,
    scenarios=(str(_SCENARIO),),
)


# ----------------------------------------------------------------------
# kp_count_for.
# ----------------------------------------------------------------------
def test_kp_count_exact_when_it_fits():
    assert kp_count_for(8, 64, 4) == 64
    assert kp_count_for(16, 64, 4) == 64


def test_kp_count_rounds_down():
    assert kp_count_for(4, 64, 4) == 16  # 4x4 grid holds at most 16 KPs
    assert kp_count_for(6, 64, 4) == 36


def test_kp_count_unusable_raises():
    # A configuration error by name (the sweeps and Time Warp configs share it).
    with pytest.raises(ConfigurationError, match="no usable KP count"):
        kp_count_for(2, 1, 4)  # fewer KPs requested than PEs
    with pytest.raises(ConfigurationError, match="no usable KP count"):
        kp_count_for(3, 2, 4)


# ----------------------------------------------------------------------
# Every registered experiment runs and has rows.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exp_id", experiment_ids())
def test_experiment_regenerates(exp_id):
    table = run_experiment(exp_id, TINY)
    assert table.rows, f"{exp_id} produced no rows"
    assert table.title
    assert table.to_csv().strip()


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99", TINY)


# ----------------------------------------------------------------------
# The report's claims: who wins, what grows, what shrinks.
#
# One row per experiment: (exp_id, sweep, claim).  The sweeps are
# laptop-scale; ``python -m repro.experiments --sizes 8,16,...,256`` runs
# the paper-scale ones.  TREND has a third size for claims about growth
# with N (a straight line through two points proves nothing).
# ----------------------------------------------------------------------
LAPTOP = SweepParams(
    sizes=(4, 8),
    duration=40.0,
    loads=(0.25, 0.50, 0.75, 1.00),
    pe_counts=(1, 2, 4),
    kp_counts=(4, 8, 16),
    window=2.0,
)
TREND = SweepParams(
    sizes=(4, 8, 12),
    duration=40.0,
    loads=(0.25, 1.00),
    pe_counts=(1, 2, 4),
    kp_counts=(4, 16),
    window=2.0,
)


def _by(table, *keys):
    """Rows as dicts, indexed by the values of the ``keys`` columns."""
    records = [dict(zip(table.columns, row)) for row in table.rows]
    return {tuple(r[k] for k in keys): r for r in records}


def _load_columns(table, params):
    """The lightest- and heaviest-load series of a per-load figure."""
    lo, hi = params.loads[0], params.loads[-1]
    return (
        table.column(f"{int(lo * 100)}% injectors"),
        table.column(f"{int(hi * 100)}% injectors"),
    )


def _kp_pairs(table):
    """(fewest-KPs value, most-KPs value) per size, skipping unusable cells."""
    kp_cols = [c for c in table.columns if c.endswith("KPs")]
    pairs = zip(table.column(kp_cols[0]), table.column(kp_cols[-1]))
    return [(few, many) for few, many in pairs if "-" not in (few, many)]


def _fig3(table, params):
    # §4.1: delivery time grows linearly with N; load has a limited effect.
    sizes = table.column("N")
    for load in params.loads:
        series = table.column(f"{int(load * 100)}% injectors")
        assert series == sorted(series)
        assert fit_linear(sizes, series).r_squared > 0.95, (
            f"delivery vs N not linear at load {load}"
        )
    lo, hi = _load_columns(table, params)
    assert hi[-1] < 2.5 * lo[-1]


def _fig4(table, params):
    # §4.1: the injection rate has a *significant* effect on the wait.
    lo, hi = _load_columns(table, params)
    assert all(heavy > light for light, heavy in zip(lo, hi))
    assert hi == sorted(hi)
    assert hi[-1] > 1.5 * lo[-1]


def _fig5(table, params):
    # §4.2.2: 4 PEs run a few times faster than 1; the sequential rate
    # does not improve as networks grow.
    one, two, four = (table.column(f"{p} PE") for p in (1, 2, 4))
    for o, t, f in zip(one, two, four):
        assert o < t < f
        assert 1.2 < f / o < 4.5, "4-PE speed-up outside the paper's 2-4x band"
    assert one[-1] <= one[0] * 1.01


def _fig6(table, params):
    # §4.2.2: efficiency is below linear and has stopped improving by the
    # largest size.
    for col in ("2 PE", "4 PE"):
        assert all(0.3 < value <= 1.1 for value in table.column(col))
    four = table.column("4 PE")
    assert four[-1] <= max(four) + 1e-9
    assert four[-1] < 1.0


def _fig7(table, params):
    # §4.2.3: more KPs, fewer events rolled back; volume grows with N.
    pairs = _kp_pairs(table)
    assert all(many <= few for few, many in pairs)
    assert pairs[-1][0] > pairs[0][0]


def _fig8(table, params):
    # §4.2.3: more KPs help (or at worst are neutral) on small networks.
    assert any(many >= few * 0.98 for few, many in _kp_pairs(table))


def _determinism(table, params):
    # Attachment 3 / §4.2.1: parallel == sequential — and at least one
    # configuration really rolled back before arriving at the same answer.
    assert all(table.column("identical")), "a configuration diverged"
    assert any(v > 0 for v in table.column("rolled back"))


def _abl_rc(table, params):
    # ROSS: reverse computation out-runs state saving on identical work.
    rows = _by(table, "N", "workload", "strategy")
    for n in params.sizes:
        for workload in ("hotpotato", "phold"):
            reverse, copy = rows[n, workload, "reverse"], rows[n, workload, "copy"]
            assert reverse["committed"] == copy["committed"]
            assert reverse["event rate"] > copy["event rate"]


def _abl_map(table, params):
    # §3.2.3: a random mapping makes almost every hop cross a PE boundary.
    rows = _by(table, "N", "mapping")
    for n in params.sizes:
        assert (
            rows[n, "random"]["remote sends"]
            > 1.5 * rows[n, "block"]["remote sends"]
        )


def _abl_base(table, params):
    # §1.2.3: hot-potato routing uses links far better than flow control.
    rows = _by(table, "N", "algorithm")
    assert {algo for _, algo in rows} == {
        "busch", "greedy", "random-deflection", "buffered-flow-control",
    }
    assert all(r["delivered"] > 0 for r in rows.values())
    for n in params.sizes:
        assert (
            rows[n, "busch"]["link util"]
            > 1.5 * rows[n, "buffered-flow-control"]["link util"]
        )


def _abl_adapt(table, params):
    # The throttle engages and cuts wasted work where there is any.
    rows = _by(table, "N", "optimism")
    for n in params.sizes:
        fixed, adaptive = rows[n, "fixed"], rows[n, "adaptive"]
        assert fixed["committed"] == adaptive["committed"]
        if fixed["rolled back"] > 1000:
            assert adaptive["rolled back"] < fixed["rolled back"]
            assert adaptive["final factor"] < 1.0


def _abl_sync(table, params):
    # Both protocols commit the same work; Time Warp wins where lookahead
    # windows starve (small N).
    rows = _by(table, "N", "protocol")
    assert {p for _, p in rows} == {"time-warp", "conservative/yawns"}
    for n in params.sizes:
        tw, yawns = rows[n, "time-warp"], rows[n, "conservative/yawns"]
        assert tw["committed"] == yawns["committed"]
    n0 = params.sizes[0]
    assert (
        rows[n0, "time-warp"]["event rate"]
        > rows[n0, "conservative/yawns"]["event rate"]
    )


def _static(table, params):
    # Das et al.: a full network with no injection drains completely, and
    # the drain's average delivery time grows with N.
    rows = _by(table, "N", "algorithm")
    for r in rows.values():
        assert r["drained"] is True
        assert r["delivered"] == r["seeded"]
    busch = [rows[n, "busch"]["avg delivery"] for n in params.sizes]
    assert busch == sorted(busch)


def _topo(table, params):
    # §1.1: the mesh's doubled diameter costs delivery time at every size.
    rows = _by(table, "N", "topology")
    for n in params.sizes:
        mesh, torus = rows[n, "mesh"], rows[n, "torus"]
        assert mesh["diameter"] > torus["diameter"]
        assert mesh["avg delivery"] > torus["avg delivery"]


CLAIMS = [
    ("fig3", TREND, _fig3),
    ("fig4", TREND, _fig4),
    ("fig5", TREND, _fig5),
    ("fig6", TREND, _fig6),
    ("fig7", TREND, _fig7),
    ("fig8", TREND, _fig8),
    ("determinism", LAPTOP, _determinism),
    ("abl-rc", LAPTOP, _abl_rc),
    ("abl-map", LAPTOP, _abl_map),
    ("abl-base", LAPTOP, _abl_base),
    ("abl-adapt", LAPTOP, _abl_adapt),
    ("abl-sync", LAPTOP, _abl_sync),
    ("static", TREND, _static),
    ("topo", TREND, _topo),
]


@pytest.mark.parametrize(
    "exp_id, params, claim", CLAIMS, ids=[exp_id for exp_id, _, _ in CLAIMS]
)
def test_experiment_supports_report_claim(exp_id, params, claim):
    claim(run_experiment(exp_id, params), params)


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_parser_defaults():
    args = build_parser().parse_args(["fig3"])
    assert args.sizes == (8, 16)
    assert args.duration == 100.0


def test_parser_rejects_bad_lists():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--sizes", "a,b"])


def test_main_runs_one_experiment(capsys, tmp_path):
    rc = main(
        [
            "fig3",
            "--sizes",
            "4",
            "--duration",
            "20",
            "--loads",
            "1.0",
            "--csv-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert (tmp_path / "fig3.csv").exists()


def test_main_rejects_unknown(capsys):
    assert main(["nope"]) == 2


def test_registry_descriptions():
    for exp_id, (desc, module) in EXPERIMENTS.items():
        assert desc and callable(module.points) and callable(module.table)
