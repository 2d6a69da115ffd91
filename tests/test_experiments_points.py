"""Every hot-potato run an experiment makes is a sweep point.

A recording supervisor runs each point spec in-process; every
``HotPotatoSimulation.run`` call of every registered experiment must
happen inside it, and the supervised tables must equal the unsupervised
ones.  The CLI side: one telemetry file per point, and ``--procs`` never
silently skipped.
"""

import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.experiments import common
from repro.experiments.common import SweepParams
from repro.experiments.figures import experiment_ids, run_experiment
from repro.experiments.pointworker import run_spec
from repro.experiments.runner import main
from repro.hotpotato.model import HotPotatoModel
from repro.hotpotato.simulation import HotPotatoSimulation

_SCENARIO = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "scenarios" / "adversarial_faulted.json"
)


class RecordingSupervisor:
    """Runs each point spec in-process and records it."""

    cfg = SimpleNamespace(checkpoint_every=4)

    def __init__(self):
        self.specs = []
        self.inside = False

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
    common.set_supervisor(sup)
    try:
        for exp in experiment_ids():
            before = len(sup.specs)
            assert _comparable(run_experiment(exp, params)) == plain[exp], exp
            assert len(sup.specs) > before, f"{exp} ran no point"
            assert not outside, f"{exp} ran outside the supervisor: {outside}"
    finally:
        common.set_supervisor(None)
    kinds = {spec["kind"] for spec in sup.specs}
    assert kinds == {"seq", "opt", "cons"}


def test_telemetry_files_are_named_by_point(tmp_path, capsys):
    from repro.experiments.supervisor import point_id

    sup = RecordingSupervisor()
    common.set_supervisor(sup)
    try:
        run_experiment("abl-map", SweepParams(sizes=(4,), duration=10.0))
    finally:
        common.set_supervisor(None)
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


@pytest.fixture(autouse=True)
def _restore_globals():
    yield
    common.set_supervisor(None)
    common.set_parallelism(None)
    common.set_telemetry_dir(None)
