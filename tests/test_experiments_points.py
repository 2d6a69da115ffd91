"""Every hot-potato run an experiment makes is a sweep point.

A recording supervisor runs each point spec in-process; every
``HotPotatoSimulation.run`` call of every registered experiment must
happen inside it, and the supervised tables must equal the unsupervised
ones.  One sweep runs each distinct point once, and the point ids stay
those the sweep has always journaled.  The CLI side: one telemetry file
per point, and ``--procs`` never silently skipped.
"""

import json
import pathlib

import pytest

from repro.experiments import supervisor as supervisor_module
from repro.experiments.common import SweepParams
from repro.experiments.figures import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.pointworker import run_spec
from repro.experiments.runner import main, sweep_spec
from repro.experiments.supervisor import point_id
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.simulation import HotPotatoSimulation

_SCENARIO = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "scenarios" / "adversarial_faulted.json"
)


class RecordingSupervisor:
    """Runs each point spec in-process and records it (and stands in for
    the CLI's journaling ``Supervisor``)."""

    def __init__(self):
        self.specs = []
        self.inside = False

    def journal_meta(self, **doc):
        pass

    def close(self):
        pass

    def run_point(self, spec):
        self.specs.append(spec)
        self.inside = True
        try:
            return run_spec(spec)
        finally:
            self.inside = False


def _comparable(table):
    """The table without the cells that vary between two runs of one
    tree: abl-rc's wall clock and the ``procs`` = 2 rolled-back count."""
    cols = list(table.columns)
    rows = []
    for row in table.rows:
        row = list(row)
        if "wall (s)" in cols:
            row[cols.index("wall (s)")] = None
        if "procs" in cols and row[cols.index("procs")] == 2:
            row[cols.index("rolled back")] = None
        rows.append(row)
    return table.title, cols, rows, table.notes


def test_every_hotpotato_run_is_a_supervised_point(monkeypatch):
    params = SweepParams(sizes=(4,), duration=20.0, scenarios=(str(_SCENARIO),))
    plain = {exp: _comparable(run_experiment(exp, params)) for exp in experiment_ids()}

    sup = RecordingSupervisor()
    outside = []

    def recording(method):
        def wrapper(self, *args, **kwargs):
            if not sup.inside:
                outside.append(method.__qualname__)
            return method(self, *args, **kwargs)
        return wrapper

    # A hand-built run constructs its model outside any point, and a
    # simulation run outside a point bypasses the supervisor.
    monkeypatch.setattr(HotPotatoSimulation, "run", recording(HotPotatoSimulation.run))
    monkeypatch.setattr(HotPotatoModel, "__init__", recording(HotPotatoModel.__init__))
    for exp in experiment_ids():
        before = len(sup.specs)
        table = run_experiment(exp, params, supervisor=sup)
        assert _comparable(table) == plain[exp], exp
        assert len(sup.specs) > before, f"{exp} ran no point"
        assert not outside, f"{exp} ran outside the supervisor: {outside}"
    kinds = {spec["kind"] for spec in sup.specs}
    assert kinds == {"seq", "opt", "cons"}


def test_telemetry_files_are_named_by_point(tmp_path, capsys):
    sup = RecordingSupervisor()
    run_experiment("abl-map", SweepParams(sizes=(4,), duration=10.0), supervisor=sup)
    # The file is named before the telemetry and supervisor keys are added.
    ids = {
        point_id({k: v for k, v in s.items()
                  if k not in ("telemetry", "checkpoint_every")})
        for s in sup.specs
    }

    rc = main(["abl-map", "--sizes", "4", "--duration", "10",
               "--telemetry-dir", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("*.jsonl"))
    # One recording per mapping: block, striped and random.
    assert len(files) == 3
    assert {f.stem for f in files} == ids
    assert all(f.stat().st_size > 0 for f in files)


def _manifest(out_dir):
    return [
        json.loads(line)
        for line in (out_dir / "manifest.jsonl").read_text().splitlines()
        if line.strip()
    ]


def _tables(out: str) -> list[str]:
    return [line for line in out.splitlines() if "regenerated in" not in line]


def test_supervised_points_run_in_process_mode(tmp_path, capsys):
    argv = ["resilience", "--sizes", "4", "--duration", "10",
            "--fault-rates", "0", "--procs", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    docs = _manifest(tmp_path)
    opt = [d["spec"] for d in docs if d.get("status") == "started"
           and d["spec"]["kind"] == "opt"]
    assert opt and all(s["overrides"]["procs"] == 2 for s in opt)
    assert first.splitlines()[4].split()[-1] == "yes"  # the seq==opt cell

    # A bare resume re-declares the same points: all served from disk.
    assert main(["--resume", str(tmp_path)]) == 0
    assert _tables(capsys.readouterr().out) == _tables(first)
    started = [d for d in _manifest(tmp_path) if d.get("status") == "started"]
    assert len(started) == len([d for d in docs if d.get("status") == "started"])


def test_points_procs_cannot_split_are_named(capsys):
    argv = ["fig5", "--sizes", "4", "--duration", "10", "--pes", "1,2",
            "--procs", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert ("--procs does not divide the PE count of N=4 on 2 PEs: these "
            "points ran in-process") in out
    assert main(argv[:-2]) == 0
    assert "--procs" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    "fig3 --replications 0",
    "fig3 --sizes ,",
    "resilience --fault-rates 2",
    "fig5 --procs 0",
    "fig3 --deadline-seconds 0",
    "fig3 --deadline-seconds -1",
    "fig3 --duration 0",
    "fig3 --loads 2",
    "fig5 --pes 0",
    "fgi3",
    "",
], ids=[
    "replications-0", "sizes-empty", "fault-rate-2", "procs-0", "deadline-0",
    "deadline-negative", "duration-0", "load-2", "pes-0", "unknown-experiment",
    "no-experiment",
])
def test_bad_values_are_refused_before_anything_is_written(argv, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = argv.split()
    for flag, value in (("--sizes", "4"), ("--duration", "10")):
        if flag not in argv:
            argv += [flag, value]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert "configuration refused: " in capsys.readouterr().err
    assert not out_dir.exists()


def _parent_sweep(out_dir, **meta):
    """A manifest holding only the ``meta`` record a sweep launched with
    the since-removed fault-plan and GVT flags wrote."""
    params = dict(
        sizes=[4], duration=10.0, loads=[1.0], pe_counts=[1, 2],
        kp_counts=[4], batch_size=16, window=2.0, replications=1,
        seed=0x5EED, fault_rates=[0.0], fault_plan=None, fault_seed=None,
        scenarios=[],
    )
    params.update({k: v for k, v in meta.items() if k in params})
    doc = {"status": "meta", "experiments": ["resilience"], "params": params,
           "procs": None, "gvt_interval": meta.get("gvt_interval", 8)}
    out_dir.mkdir()
    (out_dir / "manifest.jsonl").write_text(json.dumps(doc) + "\n")


@pytest.mark.parametrize("meta, flag", [
    ({"fault_plan": "plan.json"}, "fault_plan='plan.json'"),
    ({"fault_seed": 3}, "fault_seed=3"),
    ({"gvt_interval": 16}, "--gvt-interval 16"),
])
def test_resume_refuses_a_sweep_that_set_a_removed_flag(meta, flag, tmp_path, capsys):
    _parent_sweep(tmp_path / "sweep", **meta)
    before = (tmp_path / "sweep" / "manifest.jsonl").read_text()
    assert main(["--resume", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration refused: ") and flag in err
    assert (tmp_path / "sweep" / "manifest.jsonl").read_text() == before
    assert not (tmp_path / "sweep" / "points").exists()


def test_resume_takes_a_sweep_that_left_the_removed_flags_unset(tmp_path, capsys):
    _parent_sweep(tmp_path / "sweep")
    assert main(["--resume", str(tmp_path / "sweep")]) == 0
    assert "Resilience" in capsys.readouterr().out


#: The point ids ``all --sizes 4 --duration 20 --out-dir D`` journals,
#: sorted.  A sweep journaled by an earlier tree resumes exactly only
#: while these stay the same.
ALL_SIZE4_POINT_IDS = [
    "1116db0662faad82",
    "192a285e9e563126",
    "1b49a6fb56b2fb2a",
    "1cbb2b5545264646",
    "2b433c032f25bf0a",
    "417d5da6ec7a7299",
    "424fe92849ae045a",
    "43962fdea1a2fd5a",
    "46ec1b76b33c157b",
    "4dda401b5cb0471d",
    "4ee0a30e40253a64",
    "544bc80911911953",
    "5835e4dff3172c80",
    "765007238f3f9929",
    "7f4440e97730f773",
    "8478037ce7693fd0",
    "87823e3a5f543654",
    "88bb9442e29b0fe1",
    "8a06eb3257a62fed",
    "9017c9f8e79131ec",
    "91c8b83e3d18f14b",
    "94ae12f5bf06f276",
    "a3beabd62be678e5",
    "b110934ba2a25558",
    "b4a8288ebed873ec",
    "bedc50609fab2fa7",
    "bf9f9215da08de65",
    "c12d696f6d90217b",
    "c6088fd3e218ea06",
    "d39525841c91e605",
    "d624149b29ab8957",
    "e167b47475d3428b",
    "e54fb7e58d9fdde5",
    "e556726d970d33a6",
    "e8baada607d99520",
    "eb2f1ff28ca0d297",
    "f43be79ec4c075ba",
    "f98263f2535a3ec9",
]


def test_point_ids_do_not_change():
    params = SweepParams(sizes=(4,), duration=20.0)
    ids = {
        point_id(sweep_spec(declared, supervised=True)[0])
        for exp in experiment_ids()
        for declared in EXPERIMENTS[exp][1].points(params).values()
    }
    assert sorted(ids) == ALL_SIZE4_POINT_IDS


def test_a_sweep_runs_each_distinct_point_once(tmp_path, monkeypatch, capsys):
    """Figs 4, 6 and 8 read Figs 3, 5 and 7's points: the supervisor is
    asked for each point once, under the ids the sweep journals."""
    sup = RecordingSupervisor()
    monkeypatch.setattr(supervisor_module, "Supervisor", lambda *a, **k: sup)
    argv = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "--sizes", "4", "--duration", "20", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    ids = [point_id(spec) for spec in sup.specs]
    assert len(ids) == len(set(ids)), "a point was requested twice"
    assert set(ids) <= set(ALL_SIZE4_POINT_IDS)
    assert "Figure 8" in capsys.readouterr().out
